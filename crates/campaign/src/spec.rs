//! Grid specification parsing: compact CLI flag values and a TOML-subset
//! spec file.
//!
//! The flag grammar keeps ad-hoc sweeps one-liners:
//!
//! ```text
//! --n 50,100,200   --c 1..=5   --paths simple,cyclic
//! --strategies fixed:1,fixed:5,uniform:2:8,geometric:0.75:50,optimal:5
//! --engines exact,mc
//! --epochs 1,4   --rotation static,shift:2,resample   --churn none,iid:0.25
//! ```
//!
//! The spec file carries the same axes (plus run settings) in a TOML
//! subset parsed in-tree — this build environment is offline, so no TOML
//! crate is available. Supported: `[grid]` / `[run]` (alias `[config]`)
//! tables, `#` comments, integer / float / boolean / quoted-string
//! scalars, and flat arrays thereof. The run section accepts every key
//! of the run-settings table ([`crate::settings::RUN_SETTINGS`]) —
//! sample counts, live-cluster sizing, and observability switches such
//! as `progress = true` or `metrics_addr = "127.0.0.1:9464"` — so a grid
//! file fully describes a run without CLI flags.

use anonroute_core::epochs::{ChurnModel, RotationPolicy};

use crate::grid::{parse_path_kind, EngineKind, ScenarioGrid, StrategySpec};
use crate::runner::CampaignConfig;
use crate::settings::{Access, RunSetting};

/// The longest integer list a flag value or spec key may expand to. Every
/// grid this project ships lists at most five values per axis; the cap
/// keeps a typo such as `--n 0..=18446744073709551615` from allocating the
/// whole range before any other check runs.
pub const MAX_LIST_LEN: usize = 10_000;

/// Parses a list of non-negative integers: comma-separated values and/or
/// `a..b` (exclusive) / `a..=b` (inclusive) ranges, e.g. `1,2,8..=10`.
///
/// # Errors
///
/// Returns a message naming the offending token, including the token that
/// would take the list past [`MAX_LIST_LEN`] values.
pub fn parse_usize_list(text: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for token in text.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let (lo, hi) = if let Some((lo, hi)) = token.split_once("..=") {
            let (lo, hi) = (parse_usize(lo)?, parse_usize(hi)?);
            if lo > hi {
                return Err(format!("range `{token}` is empty"));
            }
            (lo, hi)
        } else if let Some((lo, hi)) = token.split_once("..") {
            let (lo, hi) = (parse_usize(lo)?, parse_usize(hi)?);
            if lo >= hi {
                return Err(format!("range `{token}` is empty"));
            }
            (lo, hi - 1)
        } else {
            let value = parse_usize(token)?;
            (value, value)
        };
        // `hi - lo + 1` overflows only for the full `0..=usize::MAX`
        let fits = (hi - lo)
            .checked_add(1)
            .and_then(|len| len.checked_add(out.len()))
            .is_some_and(|total| total <= MAX_LIST_LEN);
        if !fits {
            return Err(format!(
                "`{token}` takes the list past {MAX_LIST_LEN} values"
            ));
        }
        out.extend(lo..=hi);
    }
    if out.is_empty() {
        return Err(format!("`{text}`: expected at least one integer"));
    }
    Ok(out)
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.trim()
        .parse::<usize>()
        .map_err(|_| format!("bad integer `{}`", s.trim()))
}

/// Splits a comma-separated flag value and parses every token.
fn parse_tokens<T>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

/// Builds a grid from CLI flag values; empty strings fall back to the
/// grid defaults (`simple` paths, `exact` engine, one static epoch, no
/// churn).
///
/// # Errors
///
/// Returns a message pointing at the failing axis value.
#[allow(clippy::too_many_arguments)] // one parameter per CLI axis flag
pub fn grid_from_flags(
    ns: &str,
    cs: &str,
    paths: &str,
    strategies: &str,
    engines: &str,
    epochs: &str,
    rotations: &str,
    churns: &str,
) -> Result<ScenarioGrid, String> {
    let mut grid = ScenarioGrid::new()
        .ns(parse_usize_list(ns)?)
        .cs(parse_usize_list(cs)?)
        .strategies(parse_tokens(strategies, StrategySpec::parse)?);
    if grid.strategies.is_empty() {
        return Err("expected at least one strategy".into());
    }
    if !paths.is_empty() {
        grid = grid.path_kinds(parse_tokens(paths, parse_path_kind)?);
    }
    if !engines.is_empty() {
        grid = grid.engines(parse_tokens(engines, EngineKind::parse)?);
    }
    if !epochs.is_empty() {
        let epochs = parse_usize_list(epochs)?;
        if epochs.contains(&0) {
            return Err("--epochs values must be at least 1".into());
        }
        grid = grid.epochs(epochs);
    }
    if !rotations.is_empty() {
        grid = grid.rotations(parse_tokens(rotations, RotationPolicy::parse)?);
    }
    if !churns.is_empty() {
        grid = grid.churns(parse_tokens(churns, ChurnModel::parse)?);
    }
    Ok(grid)
}

/// One parsed TOML-subset scalar.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Array(Vec<Value>),
}

impl Value {
    fn parse(raw: &str) -> Result<Value, String> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err("empty value".into());
        }
        if let Some(inner) = raw.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated array `{raw}`"))?;
            let mut items = Vec::new();
            for part in split_top_level(inner) {
                let part = part.trim();
                if !part.is_empty() {
                    items.push(Value::parse(part)?);
                }
            }
            return Ok(Value::Array(items));
        }
        if let Some(inner) = raw.strip_prefix('"') {
            let inner = inner
                .strip_suffix('"')
                .ok_or_else(|| format!("unterminated string `{raw}`"))?;
            return Ok(Value::Str(inner.to_string()));
        }
        if raw == "true" {
            return Ok(Value::Bool(true));
        }
        if raw == "false" {
            return Ok(Value::Bool(false));
        }
        if let Ok(i) = raw.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(f) = raw.parse::<f64>() {
            return Ok(Value::Float(f));
        }
        Err(format!("cannot parse value `{raw}`"))
    }

    fn as_usize_list(&self, key: &str) -> Result<Vec<usize>, String> {
        match self {
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Int(i) if *i >= 0 => out.push(*i as usize),
                        Value::Str(s) => out.extend(parse_usize_list(s)?),
                        other => {
                            return Err(format!(
                                "{key}: expected non-negative integer, got {other:?}"
                            ))
                        }
                    }
                    if out.len() > MAX_LIST_LEN {
                        return Err(format!("{key}: more than {MAX_LIST_LEN} values"));
                    }
                }
                Ok(out)
            }
            Value::Int(i) if *i >= 0 => Ok(vec![*i as usize]),
            Value::Str(s) => parse_usize_list(s),
            other => Err(format!("{key}: expected integer list, got {other:?}")),
        }
    }

    /// Parses a string-list value — one quoted string or an array of
    /// them — splitting every string on commas the way [`parse_tokens`]
    /// splits a flag value, so `"exact,mc"` and `["exact", "mc"]` agree.
    fn parse_list<T>(
        &self,
        key: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = match self {
            Value::Array(items) => items.as_slice(),
            one => std::slice::from_ref(one),
        };
        let mut out = Vec::new();
        for item in items {
            let Value::Str(text) = item else {
                return Err(format!("{key}: expected string, got {item:?}"));
            };
            out.extend(parse_tokens(text, &parse)?);
        }
        if out.is_empty() {
            return Err(format!("{key}: expected at least one value"));
        }
        Ok(out)
    }

    fn as_u64(&self, key: &str) -> Result<u64, String> {
        match self {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!(
                "{key}: expected non-negative integer, got {other:?}"
            )),
        }
    }

    fn as_bool(&self, key: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{key}: expected true or false, got {other:?}")),
        }
    }

    fn as_one_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("{key}: expected a quoted string, got {other:?}")),
        }
    }
}

/// Splits on top-level commas (quotes respected; arrays do not nest in
/// this subset).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, ch) in s.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a spec file into a grid plus run-config overrides applied on top
/// of `base`.
///
/// # Errors
///
/// Returns `line N: message` for the first offending line; a spec that
/// never sets a required axis is reported at its last line.
pub fn parse_spec(
    text: &str,
    base: &CampaignConfig,
) -> Result<(ScenarioGrid, CampaignConfig), String> {
    let mut grid = ScenarioGrid::new();
    let mut config = base.clone();
    let mut section = String::new();
    let mut saw_strategies = false;
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let at = |m: String| format!("line {}: {m}", lineno + 1);
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| at(format!("unterminated section header `{line}`")))?;
            section = name.trim().to_string();
            if section == "config" {
                // `[config]` is an alias for `[run]`
                section = "run".to_string();
            }
            if section != "grid" && section != "run" {
                return Err(at(format!(
                    "unknown section `[{section}]` (expected [grid], [run], or [config])"
                )));
            }
            continue;
        }
        let (key, raw_value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim();
        let value = Value::parse(raw_value).map_err(at)?;
        match (section.as_str(), key) {
            ("grid", "n") => grid.ns = value.as_usize_list(key).map_err(at)?,
            ("grid", "c") => grid.cs = value.as_usize_list(key).map_err(at)?,
            ("grid", "path" | "paths") => {
                grid.path_kinds = value.parse_list(key, parse_path_kind).map_err(at)?;
            }
            ("grid", "strategy" | "strategies") => {
                grid.strategies = value.parse_list(key, StrategySpec::parse).map_err(at)?;
                saw_strategies = true;
            }
            ("grid", "engine" | "engines") => {
                grid.engines = value.parse_list(key, EngineKind::parse).map_err(at)?;
            }
            ("grid", "epochs") => {
                let epochs = value.as_usize_list(key).map_err(at)?;
                if epochs.contains(&0) {
                    return Err(at("epochs values must be at least 1".into()));
                }
                grid.epochs = epochs;
            }
            ("grid", "rotation" | "rotations") => {
                grid.rotations = value.parse_list(key, RotationPolicy::parse).map_err(at)?;
            }
            ("grid", "churn" | "churns") => {
                grid.churns = value.parse_list(key, ChurnModel::parse).map_err(at)?;
            }
            ("run", _) => {
                let setting = RunSetting::by_key(key)
                    .ok_or_else(|| at(format!("unknown key `{key}` in section [run]")))?;
                let text = match setting.access {
                    Access::Count(..) => value.as_u64(key).map_err(at)?.to_string(),
                    Access::Switch(..) => value.as_bool(key).map_err(at)?.to_string(),
                    Access::Text(..) => value.as_one_str(key).map_err(at)?.to_string(),
                };
                setting
                    .apply(&mut config, &text)
                    .map_err(|e| at(format!("{key}: {e}")))?;
            }
            ("", _) => return Err(at(format!("key `{key}` outside [grid]/[run] section"))),
            (_, _) => return Err(at(format!("unknown key `{key}` in section [{section}]"))),
        }
    }
    let missing: Vec<&str> = [
        ("grid.n", grid.ns.is_empty()),
        ("grid.c", grid.cs.is_empty()),
        ("grid.strategies", !saw_strategies),
    ]
    .into_iter()
    .filter_map(|(axis, unset)| unset.then_some(axis))
    .collect();
    if !missing.is_empty() {
        // nothing is wrong with any one line: point at the end of the spec
        return Err(format!(
            "line {}: the spec ends without {} (it must set grid.n, grid.c, and grid.strategies)",
            text.lines().count().max(1),
            missing.join(", ")
        ));
    }
    Ok((grid, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usize_lists_support_values_and_ranges() {
        assert_eq!(parse_usize_list("50,100,200").unwrap(), vec![50, 100, 200]);
        assert_eq!(parse_usize_list("1..=5").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(parse_usize_list("1..4").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_usize_list("7, 1..=2").unwrap(), vec![7, 1, 2]);
        assert!(parse_usize_list("5..=2").is_err());
        assert!(parse_usize_list("x").is_err());
        assert!(parse_usize_list("").is_err());
    }

    #[test]
    fn usize_lists_are_capped_before_they_are_built() {
        // the full range would be 2^64 values: rejected from its bounds
        // alone, naming the token
        let err = parse_usize_list("0..=18446744073709551615").unwrap_err();
        assert!(err.contains("`0..=18446744073709551615`"), "{err}");
        assert!(err.contains("10000"), "{err}");
        let err = parse_usize_list(&format!("3,0..{}", usize::MAX)).unwrap_err();
        assert!(err.contains(&format!("`0..{}`", usize::MAX)), "{err}");
        assert!(parse_usize_list("1..=10000000000").is_err());
        // the cap counts the whole list, not one token
        assert_eq!(parse_usize_list("1..=10000").unwrap().len(), MAX_LIST_LEN);
        let err = parse_usize_list("1..=10000,7").unwrap_err();
        assert!(err.contains("`7`"), "{err}");
        assert_eq!(parse_usize_list("0..10000").unwrap().len(), MAX_LIST_LEN);
        // spec files go through the same parser, and arrays count in total
        let spec = |n: &str| format!("[grid]\nn = {n}\nc = 1\nstrategies = \"fixed:1\"\n");
        let base = CampaignConfig::default();
        let err = parse_spec(&spec("\"1..=10000000000\""), &base).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_spec(&spec("[\"1..=6000\", \"1..=6000\"]"), &base).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn flags_build_the_expected_grid() {
        let grid = grid_from_flags(
            "50,100",
            "1..=3",
            "simple,cyclic",
            "fixed:1,uniform:2:8",
            "exact,mc",
            "",
            "",
            "",
        )
        .unwrap();
        assert_eq!(grid.len(), 2 * 3 * 2 * 2 * 2);
        assert!(grid_from_flags("10", "1", "", "fixed:1", "", "", "", "").is_ok());
        assert!(grid_from_flags("10", "1", "", "", "", "", "", "").is_err());
        assert!(grid_from_flags("10", "1", "spiral", "fixed:1", "", "", "", "").is_err());
    }

    #[test]
    fn dynamics_flags_extend_the_grid() {
        use anonroute_core::epochs::{ChurnModel, RotationPolicy};
        let grid = grid_from_flags(
            "20",
            "1",
            "",
            "fixed:2",
            "exact,mc",
            "1,4",
            "static,shift:2",
            "none,iid:0.25",
        )
        .unwrap();
        assert_eq!(grid.epochs, vec![1, 4]);
        assert_eq!(
            grid.rotations,
            vec![RotationPolicy::Static, RotationPolicy::Shift { step: 2 }]
        );
        assert_eq!(
            grid.churns,
            vec![ChurnModel::None, ChurnModel::Iid { rate: 0.25 }]
        );
        assert_eq!(grid.len(), 2 * 2 * 2 * 2);
        assert!(grid_from_flags("20", "1", "", "fixed:2", "", "0", "", "").is_err());
        assert!(grid_from_flags("20", "1", "", "fixed:2", "", "", "spin", "").is_err());
        assert!(grid_from_flags("20", "1", "", "fixed:2", "", "", "", "2.0").is_err());
    }

    #[test]
    fn spec_file_roundtrip() {
        let text = r#"
# fig3-style sweep
[grid]
n = [50, 100]          # system sizes
c = "1..=2"
path = ["simple", "cyclic"]
strategies = ["fixed:1", "uniform:2:8", "geometric:0.75:50"]
engines = ["exact", "mc"]

[run]
threads = 3
seed = 99
mc_samples = 5000
sim_messages = 800
"#;
        let (grid, config) = parse_spec(text, &CampaignConfig::default()).unwrap();
        assert_eq!(grid.ns, vec![50, 100]);
        assert_eq!(grid.cs, vec![1, 2]);
        assert_eq!(grid.path_kinds.len(), 2);
        assert_eq!(grid.strategies.len(), 3);
        assert_eq!(grid.engines.len(), 2);
        assert_eq!(grid.len(), 2 * 2 * 2 * 3 * 2);
        assert_eq!(config.threads, 3);
        assert_eq!(config.seed, 99);
        assert_eq!(config.mc_samples, 5000);
        assert_eq!(config.sim_messages, 800);
    }

    #[test]
    fn config_section_aliases_run() {
        // every run key's parsing is covered by the run-settings table's
        // round-trip test in manifest.rs; this pins the section alias
        let text = r#"
[grid]
n = 10
c = 1
strategies = "fixed:2"
engines = ["exact", "live"]

[config]
seed = 5
live_messages = 89
"#;
        let (grid, config) = parse_spec(text, &CampaignConfig::default()).unwrap();
        assert_eq!(grid.engines, vec![EngineKind::Exact, EngineKind::Live]);
        assert_eq!(config.seed, 5);
        assert_eq!(config.live_messages, 89);
    }

    #[test]
    fn spec_file_carries_dynamics_axes() {
        use anonroute_core::epochs::{ChurnModel, RotationPolicy};
        let text = r#"
[grid]
n = 12
c = 1
strategies = "uniform:1:3"
engines = ["exact", "sim"]
epochs = [1, 3]
rotation = ["static", "resample"]
churn = ["none", "iid:0.2"]
"#;
        let (grid, _) = parse_spec(text, &CampaignConfig::default()).unwrap();
        assert_eq!(grid.epochs, vec![1, 3]);
        assert_eq!(
            grid.rotations,
            vec![RotationPolicy::Static, RotationPolicy::Resample]
        );
        assert_eq!(
            grid.churns,
            vec![ChurnModel::None, ChurnModel::Iid { rate: 0.2 }]
        );
        assert_eq!(grid.len(), 2 * 2 * 2 * 2);
        // zero epochs and malformed policies are rejected with line info
        let bad = "[grid]\nn = 12\nc = 1\nstrategies = \"fixed:1\"\nepochs = [0]\n";
        let err = parse_spec(bad, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("line 5"), "{err}");
        let bad = "[grid]\nn = 12\nc = 1\nstrategies = \"fixed:1\"\nrotation = \"spin\"\n";
        assert!(parse_spec(bad, &CampaignConfig::default()).is_err());
    }

    #[test]
    fn run_section_carries_observability_switches() {
        let text = r#"
[grid]
n = 10
c = 1
strategies = "fixed:2"

[run]
progress = true
metrics_addr = "127.0.0.1:9464"
"#;
        let (_, config) = parse_spec(text, &CampaignConfig::default()).unwrap();
        assert!(config.progress);
        assert_eq!(config.metrics_addr, Some("127.0.0.1:9464".parse().unwrap()));
        // bad values are rejected with line info
        let bad = "[grid]\nn = 10\nc = 1\nstrategies = \"fixed:2\"\n[run]\nprogress = 1\n";
        let err = parse_spec(bad, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("line 6"), "{err}");
        let bad =
            "[grid]\nn = 10\nc = 1\nstrategies = \"fixed:2\"\n[run]\nmetrics_addr = \"nope\"\n";
        let err = parse_spec(bad, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("socket address"), "{err}");
    }

    #[test]
    fn spec_defaults_apply_when_sections_are_minimal() {
        let text = "[grid]\nn = 20\nc = 1\nstrategies = \"fixed:3\"\n";
        let (grid, config) = parse_spec(text, &CampaignConfig::default()).unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(config.seed, CampaignConfig::default().seed);
    }

    #[test]
    fn spec_errors_name_the_line() {
        let bad = "[grid]\nn = 10\nc = 1\nwat = 3\n";
        let err = parse_spec(bad, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(parse_spec("[nope]\n", &CampaignConfig::default()).is_err());
        assert!(parse_spec("x = 1\n", &CampaignConfig::default()).is_err());
        let err = parse_spec("[grid]\nn = 10\n", &CampaignConfig::default()).unwrap_err();
        assert!(
            err.starts_with("line 2: the spec ends without grid.c, grid.strategies"),
            "{err}"
        );
        // a run setting that no longer exists is rejected, not ignored
        let retired =
            "[grid]\nn = 10\nc = 1\nstrategies = \"fixed:1\"\n[run]\nlive_timeout_ms = 5\n";
        let err = parse_spec(retired, &CampaignConfig::default()).unwrap_err();
        assert!(err.contains("unknown key `live_timeout_ms`"), "{err}");
    }
}
