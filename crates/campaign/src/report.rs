//! Structured campaign output: JSON Lines, CSV, and a human summary.
//!
//! The numeric payload of a cell is a pure function of `(grid, config)`,
//! so rendered lines are byte-identical across runs and thread counts —
//! the determinism tests pin this. Wall-clock timing is inherently
//! nondeterministic and is therefore *opt-in* per call (`include_timing`),
//! keeping the default artifacts diffable.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use anonroute_obs::json_escape;

use crate::backend::PhaseProfile;
use crate::runner::{CampaignOutcome, CellResult};

/// Renders one cell as a JSON object (one line, no trailing newline).
pub fn jsonl_line(cell: &CellResult, include_timing: bool) -> String {
    let mut out = String::with_capacity(256);
    let s = &cell.scenario;
    write!(
        out,
        "{{\"cell\":{},\"n\":{},\"c\":{},\"path\":\"{}\",\"strategy\":\"{}\",\"family\":\"{}\",\"engine\":\"{}\",\"dynamics\":\"{}\",\"seed\":{}",
        cell.index,
        s.n,
        s.c,
        s.path_kind,
        json_escape(&s.strategy.to_string()),
        s.strategy.family(),
        s.engine,
        json_escape(&s.dynamics.to_string()),
        cell.seed,
    )
    .expect("writing to a String cannot fail");
    match &cell.outcome {
        Ok(m) => {
            write!(
                out,
                ",\"status\":\"ok\",\"h_star\":{},\"normalized\":{},\"mean_len\":{},\"p_exposed\":{},\"std_error\":{},\"samples\":{},\"epochs\":{},\"h_epoch1\":{}",
                json_f64(m.h_star),
                json_f64(m.normalized),
                json_f64(m.mean_len),
                json_opt_f64(m.p_exposed),
                json_opt_f64(m.std_error),
                m.samples.map_or_else(|| "null".into(), |v| v.to_string()),
                m.epochs,
                json_opt_f64(m.h_epoch1),
            )
            .expect("writing to a String cannot fail");
        }
        Err(e) => {
            write!(
                out,
                ",\"status\":\"error\",\"error\":\"{}\"",
                json_escape(e)
            )
            .expect("writing to a String cannot fail");
        }
    }
    if include_timing {
        write!(out, ",\"elapsed_us\":{}", cell.elapsed_micros)
            .expect("writing to a String cannot fail");
        if cell.outcome.is_ok() {
            let p = cell.profile;
            write!(
                out,
                ",\"profile\":{{\"setup_us\":{},\"evaluate_us\":{},\"attack_us\":{},\"fold_us\":{},\"boot_us\":{},\"traffic_us\":{}}}",
                p.setup_us, p.evaluate_us, p.attack_us, p.fold_us, p.boot_us, p.traffic_us,
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push('}');
    out
}

/// Renders the whole outcome as JSON Lines.
pub fn render_jsonl(outcome: &CampaignOutcome, include_timing: bool) -> String {
    let mut out = String::new();
    for cell in &outcome.cells {
        out.push_str(&jsonl_line(cell, include_timing));
        out.push('\n');
    }
    out
}

/// Writes the outcome to `path` as JSON Lines, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_jsonl(
    path: &Path,
    outcome: &CampaignOutcome,
    include_timing: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, render_jsonl(outcome, include_timing))
}

/// CSV column header matching [`render_csv`].
pub const CSV_HEADER: &str =
    "cell,n,c,path,strategy,family,engine,dynamics,seed,status,h_star,normalized,mean_len,p_exposed,std_error,samples,epochs,h_epoch1,error";

/// Renders the whole outcome as CSV (header + one row per cell).
pub fn render_csv(outcome: &CampaignOutcome) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for cell in &outcome.cells {
        let s = &cell.scenario;
        write!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            cell.index,
            s.n,
            s.c,
            s.path_kind,
            csv_sanitize(&s.strategy.to_string()),
            s.strategy.family(),
            s.engine,
            csv_sanitize(&s.dynamics.to_string()),
            cell.seed,
        )
        .expect("writing to a String cannot fail");
        match &cell.outcome {
            Ok(m) => {
                write!(
                    out,
                    ",ok,{},{},{},{},{},{},{},{},",
                    m.h_star,
                    m.normalized,
                    m.mean_len,
                    m.p_exposed.map_or_else(String::new, |v| v.to_string()),
                    m.std_error.map_or_else(String::new, |v| v.to_string()),
                    m.samples.map_or_else(String::new, |v| v.to_string()),
                    m.epochs,
                    m.h_epoch1.map_or_else(String::new, |v| v.to_string()),
                )
                .expect("writing to a String cannot fail");
            }
            Err(e) => {
                write!(out, ",error,,,,,,,,,{}", csv_sanitize(e))
                    .expect("writing to a String cannot fail");
            }
        }
        out.push('\n');
    }
    out
}

/// Writes the outcome to `path` as CSV, creating parent directories as
/// needed.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(path: &Path, outcome: &CampaignOutcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, render_csv(outcome))
}

/// Writes per-cell wall times and phase breakdowns to `path` as CSV —
/// timing lives in its own artifact so the main results stay
/// byte-reproducible.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_timings_csv(path: &Path, outcome: &CampaignOutcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(path)?;
    writeln!(
        f,
        "cell,n,c,path,strategy,engine,elapsed_us,setup_us,evaluate_us,attack_us,fold_us,boot_us,traffic_us"
    )?;
    for cell in &outcome.cells {
        let s = &cell.scenario;
        // error cells carry a zeroed profile: the columns stay aligned
        let p = if cell.outcome.is_ok() {
            cell.profile
        } else {
            PhaseProfile::default()
        };
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            cell.index,
            s.n,
            s.c,
            s.path_kind,
            csv_sanitize(&s.strategy.to_string()),
            s.engine,
            cell.elapsed_micros,
            p.setup_us,
            p.evaluate_us,
            p.attack_us,
            p.fold_us,
            p.boot_us,
            p.traffic_us,
        )?;
    }
    Ok(())
}

/// Human-readable run summary with throughput, cache reuse (evaluators,
/// and optimizer solves when the sweep realized an `optimal` strategy),
/// and the slowest cells.
pub fn summary(outcome: &CampaignOutcome) -> String {
    let mut out = String::new();
    let wall_s = outcome.wall.as_secs_f64();
    let cells = outcome.cells.len();
    writeln!(
        out,
        "campaign: {cells} cells ({} ok, {} infeasible) on {} thread(s) in {:.3}s ({:.1} cells/s)",
        outcome.ok_count(),
        outcome.error_count(),
        outcome.threads,
        wall_s,
        if wall_s > 0.0 {
            cells as f64 / wall_s
        } else {
            f64::INFINITY
        },
    )
    .expect("writing to a String cannot fail");
    if outcome.status != crate::runner::SweepStatus::Completed {
        writeln!(
            out,
            "sweep {}: {} cell(s) skipped by the control plane",
            outcome.status.as_str(),
            outcome.skipped,
        )
        .expect("writing to a String cannot fail");
    }
    writeln!(
        out,
        "evaluator cache: {} built, {} reused; cell cpu time {:.3}s (speedup ×{:.2})",
        outcome.cache.misses,
        outcome.cache.hits,
        outcome.cpu_micros() as f64 / 1e6,
        if wall_s > 0.0 {
            outcome.cpu_micros() as f64 / 1e6 / wall_s
        } else {
            f64::NAN
        },
    )
    .expect("writing to a String cannot fail");
    let optima = outcome.strategies;
    if optima.hits + optima.misses > 0 {
        writeln!(
            out,
            "optimal strategies: {} solved, {} reused",
            optima.misses, optima.hits,
        )
        .expect("writing to a String cannot fail");
    }
    let mut slowest: Vec<&CellResult> = outcome.cells.iter().collect();
    slowest.sort_by_key(|c| std::cmp::Reverse(c.elapsed_micros));
    for cell in slowest.iter().take(3) {
        writeln!(
            out,
            "  slow cell #{}: {} ({:.3}s)",
            cell.index,
            cell.scenario,
            cell.elapsed_micros as f64 / 1e6
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Flattens a free-form string into one CSV field: the separator and
/// record breaks are substituted so naive split-on-comma/line parsers
/// keep their field and row counts, and double quotes become
/// apostrophes so RFC-4180 readers never mistake the (unquoted) field
/// for a quoted one — whatever an error message contains.
fn csv_sanitize(s: &str) -> String {
    s.replace(',', ";")
        .replace('"', "'")
        .replace(['\r', '\n'], " ")
}

pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let text = v.to_string();
        // JSON requires a fraction or integer form; Rust's shortest-repr
        // Display of finite f64 already satisfies it
        text
    } else {
        "null".into()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json_f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{ScenarioGrid, StrategySpec};
    use crate::runner::{run, CampaignConfig};

    fn outcome() -> CampaignOutcome {
        let grid = ScenarioGrid::new()
            .ns([10])
            .cs([1])
            .strategies([StrategySpec::Fixed(3), StrategySpec::Fixed(20)]);
        run(&grid, &CampaignConfig::default())
    }

    #[test]
    fn jsonl_has_one_valid_object_per_cell() {
        let out = outcome();
        let text = render_jsonl(&out, false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"cell\":0,"));
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[0].contains("\"h_star\":"));
        assert!(lines[1].contains("\"status\":\"error\""));
        assert!(!lines[0].contains("elapsed_us"));
        let timed = render_jsonl(&out, true);
        assert!(timed.lines().next().unwrap().contains("\"elapsed_us\":"));
        for line in text.lines() {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('"').count() % 2, 0);
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let out = outcome();
        let text = render_csv(&out);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].matches(',').count(), lines[1].matches(',').count());
        assert_eq!(lines[0].matches(',').count(), lines[2].matches(',').count());
    }

    #[test]
    fn files_are_written_with_parents_created() {
        let dir = std::env::temp_dir().join("anonroute-campaign-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = outcome();
        let jsonl = dir.join("deep/run.jsonl");
        let csv = dir.join("deep/run.csv");
        let timings = dir.join("deep/timings.csv");
        write_jsonl(&jsonl, &out, false).unwrap();
        write_csv(&csv, &out).unwrap();
        write_timings_csv(&timings, &out).unwrap();
        assert!(std::fs::read_to_string(&jsonl).unwrap().lines().count() == 2);
        assert!(std::fs::read_to_string(&timings)
            .unwrap()
            .contains("elapsed_us"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_mentions_cache_and_throughput() {
        let text = summary(&outcome());
        assert!(text.contains("cells/s"));
        assert!(text.contains("evaluator cache"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    /// An error cell carrying `error` as its outcome, as a wedged live
    /// cluster or failing backend would produce.
    fn error_cell(index: usize, error: &str) -> CellResult {
        use crate::grid::{EngineKind, Scenario, StrategySpec};
        use anonroute_core::{EpochSchedule, PathKind};
        CellResult {
            index,
            scenario: Scenario {
                n: 8,
                c: 1,
                path_kind: PathKind::Simple,
                strategy: StrategySpec::Fixed(2),
                dynamics: EpochSchedule::rounds(2),
                engine: EngineKind::Live,
            },
            seed: 99,
            elapsed_micros: 1,
            profile: Default::default(),
            outcome: Err(error.to_string()),
        }
    }

    /// The nastiest plausible error strings: CSV separators, quotes, CR,
    /// LF, tabs, JSON escapes — e.g. OS socket errors quoting addresses,
    /// or a panic payload spanning lines.
    const NASTY_ERRORS: &[&str] = &[
        "connection refused: 127.0.0.1:0, retries=3",
        "panic: \"tap lock\" poisoned\nwhile serving relay 2",
        "bad frame,\r\nraw bytes: \"\\x00\\x01\", tag=9",
        "tab\there, and a trailing newline\n",
    ];

    #[test]
    fn error_cells_with_hostile_strings_stay_parseable_in_csv() {
        let outcome = CampaignOutcome {
            cells: NASTY_ERRORS
                .iter()
                .enumerate()
                .map(|(i, e)| error_cell(i, e))
                .collect(),
            wall: std::time::Duration::from_millis(1),
            threads: 1,
            cache: Default::default(),
            strategies: Default::default(),
            status: crate::runner::SweepStatus::Completed,
            skipped: 0,
        };
        let text = render_csv(&outcome);
        let lines: Vec<&str> = text.lines().collect();
        // one header + one row per cell: no error string may add rows
        assert_eq!(lines.len(), 1 + NASTY_ERRORS.len());
        let field_count = CSV_HEADER.split(',').count();
        for row in &lines[1..] {
            assert_eq!(
                row.split(',').count(),
                field_count,
                "field count drifted: {row}"
            );
            assert!(row.contains(",error,"), "status column survives: {row}");
        }
        assert!(!text.contains('\r'), "carriage returns must be flattened");
        // no raw double quote may survive: an unquoted field starting
        // with `"` would derail RFC-4180 readers (Python csv, Excel)
        assert!(!text.contains('"'), "double quotes must be substituted");
    }

    #[test]
    fn error_cells_with_hostile_strings_stay_parseable_in_jsonl() {
        for (i, error) in NASTY_ERRORS.iter().enumerate() {
            let line = jsonl_line(&error_cell(i, error), false);
            // one physical line per cell, whatever the error contains
            assert_eq!(line.lines().count(), 1, "{line}");
            assert!(!line.contains('\r'));
            // structurally valid JSON: balanced braces outside strings,
            // even quote count (every `"` in the payload is escaped)
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(
                line.chars().filter(|&c| c == '"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
            assert!(line.contains("\"status\":\"error\""));
            // the escaped error text round-trips: unescape and compare
            let start = line.find("\"error\":\"").unwrap() + "\"error\":\"".len();
            let end = line.rfind('"').unwrap();
            let unescaped = line[start..end]
                .replace("\\\"", "\"")
                .replace("\\n", "\n")
                .replace("\\r", "\r")
                .replace("\\t", "\t")
                .replace("\\\\", "\\");
            assert_eq!(&unescaped, error);
        }
    }
}
