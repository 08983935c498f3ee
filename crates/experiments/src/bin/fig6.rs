//! Regenerates Figure 6: the optimal path-length distribution vs the
//! fixed and uniform families (`n = 100`, `c = 1`).

use anonroute_core::optimize;
use anonroute_core::SystemModel;
use anonroute_experiments::figures::{fig6, Fig6};
use anonroute_experiments::output::{ensure_results_dir, print_table, write_csv};

fn main() {
    let lmax = 99;
    let l_from = 2;
    let Fig6 { series, optima } = fig6(l_from, 50, lmax);
    print_table(
        "Figure 6: optimization vs F(L) and U(2,2L-2) (n=100, c=1)",
        "L",
        &series,
    );

    // describe the optimal distribution's shape at a few means, from the
    // solves the figure has just made
    println!("\nOptimal distribution shapes:");
    for mean in [5usize, 10, 20, 40] {
        let out = &optima[mean - l_from];
        let pmf = out.dist.pmf();
        let support: Vec<(usize, f64)> = pmf
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 1e-6)
            .map(|(l, &p)| (l, p))
            .collect();
        let lo = support.first().map(|s| s.0).unwrap_or(0);
        let hi = support.last().map(|s| s.0).unwrap_or(0);
        println!(
            "  E[L]={mean:>3}: H*={:.6}, support {lo}..={hi} over {} lengths",
            out.h_star,
            support.len()
        );
    }
    let model = SystemModel::new(100, 1).expect("valid");
    let (delta_best, _) = optimize::best_uniform_with_mean(&model, lmax, 10).expect("feasible");
    println!("  best uniform spread at E[L]=10: delta = {delta_best}");

    let dir = ensure_results_dir().expect("create results dir");
    write_csv(&dir.join("fig6.csv"), "L", &series).expect("write csv");
    println!("\nCSV written to {}", dir.display());
}
