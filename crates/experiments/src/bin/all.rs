//! Runs the complete experiment suite: every figure, the theorem checks,
//! the survey, the validation, and the extensions. Writes all CSVs.

use anonroute_experiments::extensions::{compromise_sweep, cyclic_vs_simple};
use anonroute_experiments::figures::{fig3a, fig3b, fig4, fig5, fig6};
use anonroute_experiments::output::{ensure_results_dir, print_table, write_csv};
use anonroute_experiments::systems::survey_table;
use anonroute_experiments::validation::{theorem_table, validation_table};

fn main() {
    let dir = ensure_results_dir().expect("create results dir");

    // figures
    let f3a = fig3a();
    let f3b = fig3b();
    print_table("Figure 3(a)", "l", std::slice::from_ref(&f3a));
    write_csv(&dir.join("fig3a.csv"), "l", &[f3a]).expect("csv");
    write_csv(&dir.join("fig3b.csv"), "l", &[f3b]).expect("csv");
    for (i, (title, series)) in fig4().into_iter().enumerate() {
        print_table(&title, "D", &series);
        write_csv(
            &dir.join(format!("fig4{}.csv", char::from(b'a' + i as u8))),
            "D",
            &series,
        )
        .expect("csv");
    }
    for (i, (title, series)) in fig5().into_iter().enumerate() {
        print_table(&title, "L", &series);
        write_csv(
            &dir.join(format!("fig5{}.csv", char::from(b'a' + i as u8))),
            "L",
            &series,
        )
        .expect("csv");
    }
    let f6 = fig6(2, 50, 99).series;
    print_table("Figure 6", "L", &f6);
    write_csv(&dir.join("fig6.csv"), "L", &f6).expect("csv");

    // theorems
    println!("\n== Theorems ==");
    for row in theorem_table() {
        println!("{:<28} err={:.2e}", row.case, row.error());
    }

    // survey
    println!("\n== Survey ==");
    for row in survey_table() {
        println!("{:<20} H*={:.4}", row.name, row.report.h_star);
    }

    // validation
    println!("\n== Validation ==");
    for row in validation_table(2000, 2026) {
        println!(
            "{:<28} exact={:.4} mc={:.4} ok={}",
            row.case,
            row.exact,
            row.monte_carlo.mean,
            row.consistent()
        );
    }

    // extensions
    println!("\n== Extensions ==");
    for row in compromise_sweep(&[1, 5, 10, 20]) {
        println!(
            "c={:<3} best F({}) = {:.4}",
            row.c, row.best_fixed_len, row.best_h
        );
    }
    write_csv(&dir.join("ext_cyclic.csv"), "l", &cyclic_vs_simple(30)).expect("csv");

    println!("\nall experiments complete; CSVs in {}", dir.display());
}
