//! The per-campaign run manifest: one machine-readable JSON document
//! describing what was swept, how, and what came back.
//!
//! The JSONL/CSV artifacts carry per-cell *results*; the manifest
//! carries run *provenance* — the grid axes, the execution config, the
//! crate version, and the outcome tallies (including wall/CPU time and
//! per-engine breakdowns). It is written next to the result files as
//! `<base>_manifest.json` so a results directory is self-describing.
//!
//! Unlike the JSONL/CSV artifacts, the manifest deliberately includes
//! nondeterministic fields (wall seconds, thread count); the determinism
//! guard covers the result files only.
//!
//! [`validate_manifest`] re-parses a manifest with a self-contained JSON
//! reader and checks the schema contract — CI runs it against the
//! manifest a smoke sweep wrote, so the format cannot drift silently.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use anonroute_obs::json_escape;

use crate::grid::ScenarioGrid;
use crate::report::json_f64;
use crate::runner::{CampaignConfig, CampaignOutcome};
use crate::settings::{Access, RUN_SETTINGS};

/// The manifest format identifier; bump the suffix on breaking change.
///
/// v2 adds `outcome.status` / `outcome.skipped` (operator control plane:
/// a sweep may end `drained` or `aborted` with only the completed cells
/// present), `outcome.profile` (per-phase second totals over ok cells),
/// and `config.trace_out`.
///
/// v3 added a switch for a sweep-wide shared relay network. v4 drops
/// it again (every live cell boots its own cluster) and renders
/// `config` from the run-settings table ([`RUN_SETTINGS`]), which adds
/// `config.progress` and `config.metrics_addr`.
///
/// v5 drops `config.live_timeout_ms`: live cells run inline, bounded by
/// the relay layer's socket deadlines instead of a per-cell watchdog.
pub const MANIFEST_SCHEMA: &str = "anonroute-campaign-manifest/v5";

fn json_str_array<T: std::fmt::Display>(items: &[T]) -> String {
    let rendered: Vec<String> = items
        .iter()
        .map(|i| format!("\"{}\"", json_escape(&i.to_string())))
        .collect();
    format!("[{}]", rendered.join(","))
}

fn json_num_array<T: std::fmt::Display>(items: &[T]) -> String {
    let rendered: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", rendered.join(","))
}

/// Renders the manifest document (pretty-printed JSON, trailing newline).
pub fn render_manifest(
    grid: &ScenarioGrid,
    config: &CampaignConfig,
    outcome: &CampaignOutcome,
) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    writeln!(out, "  \"schema\": \"{MANIFEST_SCHEMA}\",").expect("write to String");
    writeln!(out, "  \"version\": \"{}\",", env!("CARGO_PKG_VERSION")).expect("write to String");
    out.push_str("  \"grid\": {\n");
    writeln!(out, "    \"ns\": {},", json_num_array(&grid.ns)).expect("write to String");
    writeln!(out, "    \"cs\": {},", json_num_array(&grid.cs)).expect("write to String");
    writeln!(out, "    \"paths\": {},", json_str_array(&grid.path_kinds)).expect("write to String");
    writeln!(
        out,
        "    \"strategies\": {},",
        json_str_array(&grid.strategies)
    )
    .expect("write to String");
    writeln!(out, "    \"engines\": {},", json_str_array(&grid.engines)).expect("write to String");
    writeln!(out, "    \"epochs\": {},", json_num_array(&grid.epochs)).expect("write to String");
    writeln!(
        out,
        "    \"rotations\": {},",
        json_str_array(&grid.rotations)
    )
    .expect("write to String");
    writeln!(out, "    \"churns\": {},", json_str_array(&grid.churns)).expect("write to String");
    writeln!(out, "    \"cells\": {}", grid.len()).expect("write to String");
    out.push_str("  },\n");
    out.push_str("  \"config\": {\n");
    for (i, setting) in RUN_SETTINGS.iter().enumerate() {
        let comma = if i + 1 < RUN_SETTINGS.len() { "," } else { "" };
        writeln!(
            out,
            "    \"{}\": {}{comma}",
            setting.key,
            setting.render_json(config)
        )
        .expect("write to String");
    }
    out.push_str("  },\n");
    out.push_str("  \"outcome\": {\n");
    writeln!(out, "    \"status\": \"{}\",", outcome.status.as_str()).expect("write to String");
    writeln!(out, "    \"cells\": {},", outcome.cells.len()).expect("write to String");
    writeln!(out, "    \"skipped\": {},", outcome.skipped).expect("write to String");
    writeln!(out, "    \"ok\": {},", outcome.ok_count()).expect("write to String");
    writeln!(out, "    \"errors\": {},", outcome.error_count()).expect("write to String");
    writeln!(out, "    \"threads\": {},", outcome.threads).expect("write to String");
    writeln!(
        out,
        "    \"wall_seconds\": {},",
        json_f64(outcome.wall.as_secs_f64())
    )
    .expect("write to String");
    writeln!(
        out,
        "    \"cpu_seconds\": {},",
        json_f64(outcome.cpu_micros() as f64 / 1e6)
    )
    .expect("write to String");
    writeln!(out, "    \"cache_hits\": {},", outcome.cache.hits).expect("write to String");
    writeln!(out, "    \"cache_misses\": {},", outcome.cache.misses).expect("write to String");
    // per-phase wall totals over ok cells, in seconds — the operator
    // profile; zeros when a phase does not apply to the engines swept
    let mut phases = crate::backend::PhaseProfile::default();
    for cell in &outcome.cells {
        if cell.outcome.is_ok() {
            phases.setup_us += cell.profile.setup_us;
            phases.evaluate_us += cell.profile.evaluate_us;
            phases.attack_us += cell.profile.attack_us;
            phases.fold_us += cell.profile.fold_us;
            phases.boot_us += cell.profile.boot_us;
            phases.traffic_us += cell.profile.traffic_us;
        }
    }
    out.push_str("    \"profile\": {");
    for (i, (name, micros)) in [
        ("setup_seconds", phases.setup_us),
        ("evaluate_seconds", phases.evaluate_us),
        ("attack_seconds", phases.attack_us),
        ("fold_seconds", phases.fold_us),
        ("boot_seconds", phases.boot_us),
        ("traffic_seconds", phases.traffic_us),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{name}\": {}", json_f64(micros as f64 / 1e6)).expect("write to String");
    }
    out.push_str("},\n");
    // per-engine tallies over the cells actually swept, in a stable
    // (alphabetical) key order so manifests diff cleanly
    let mut engines: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for cell in &outcome.cells {
        let slot = engines.entry(cell.scenario.engine.to_string()).or_default();
        slot.0 += 1;
        if cell.outcome.is_err() {
            slot.1 += 1;
        }
        slot.2 += cell.elapsed_micros;
    }
    out.push_str("    \"engines\": {");
    for (i, (engine, (cells, errors, micros))) in engines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n      \"{}\": {{\"cells\": {cells}, \"errors\": {errors}, \"seconds\": {}}}",
            json_escape(engine),
            json_f64(*micros as f64 / 1e6)
        )
        .expect("write to String");
    }
    if !engines.is_empty() {
        out.push('\n');
        out.push_str("    ");
    }
    out.push_str("}\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Writes the manifest to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_manifest(
    path: &Path,
    grid: &ScenarioGrid,
    config: &CampaignConfig,
    outcome: &CampaignOutcome,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, render_manifest(grid, config, outcome))
}

/// Checks that `text` is a well-formed manifest: valid JSON, the
/// expected schema tag, every required section and key present with the
/// right type, a recognized outcome status, and internally consistent
/// tallies (`ok + errors == cells`, `cells + skipped == grid.cells`,
/// engine cells sum to the total, a completed sweep skips nothing).
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn validate_manifest(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let top = doc.as_object("manifest")?;

    let schema = get(top, "schema")?.as_str("schema")?;
    if schema != MANIFEST_SCHEMA {
        return Err(format!(
            "schema mismatch: expected \"{MANIFEST_SCHEMA}\", found \"{schema:.64}\""
        ));
    }
    get(top, "version")?.as_str("version")?;

    let grid = get(top, "grid")?.as_object("grid")?;
    for key in ["ns", "cs", "epochs"] {
        let items = get(grid, key)?.as_array(key)?;
        for item in items {
            item.as_number(key)?;
        }
    }
    for key in ["paths", "strategies", "engines", "rotations", "churns"] {
        let items = get(grid, key)?.as_array(key)?;
        for item in items {
            item.as_str(key)?;
        }
    }
    get(grid, "cells")?.as_number("grid.cells")?;

    let config = get(top, "config")?.as_object("config")?;
    for setting in RUN_SETTINGS {
        let value = get(config, setting.key)?;
        let (typed, expected) = match setting.access {
            Access::Count(..) => (matches!(value, json::Value::Number(_)), "a number"),
            Access::Switch(..) => (matches!(value, json::Value::Bool(_)), "a boolean"),
            Access::Text(..) => (
                matches!(value, json::Value::Null | json::Value::String(_)),
                "a string or null",
            ),
        };
        if !typed {
            return Err(format!(
                "{}: expected {expected}, found {value:?}",
                setting.key
            ));
        }
    }

    let outcome = get(top, "outcome")?.as_object("outcome")?;
    for key in [
        "cells",
        "skipped",
        "ok",
        "errors",
        "threads",
        "wall_seconds",
        "cpu_seconds",
        "cache_hits",
        "cache_misses",
    ] {
        get(outcome, key)?.as_number(key)?;
    }
    let status = get(outcome, "status")?.as_str("outcome.status")?;
    if !matches!(status, "completed" | "drained" | "aborted") {
        return Err(format!(
            "outcome.status: expected \"completed\", \"drained\", or \"aborted\", found \"{status}\""
        ));
    }
    let cells = get(outcome, "cells")?.as_number("outcome.cells")?;
    let skipped = get(outcome, "skipped")?.as_number("outcome.skipped")?;
    let ok = get(outcome, "ok")?.as_number("outcome.ok")?;
    let errors = get(outcome, "errors")?.as_number("outcome.errors")?;
    if ok + errors != cells {
        return Err(format!(
            "tally mismatch: ok ({ok}) + errors ({errors}) != cells ({cells})"
        ));
    }
    if status == "completed" && skipped != 0.0 {
        return Err(format!(
            "tally mismatch: a completed sweep cannot skip cells (skipped = {skipped})"
        ));
    }
    let grid_cells = get(grid, "cells")?.as_number("grid.cells")?;
    if cells + skipped != grid_cells {
        return Err(format!(
            "tally mismatch: outcome.cells ({cells}) + skipped ({skipped}) != grid.cells ({grid_cells})"
        ));
    }
    let profile = get(outcome, "profile")?.as_object("outcome.profile")?;
    for key in [
        "setup_seconds",
        "evaluate_seconds",
        "attack_seconds",
        "fold_seconds",
        "boot_seconds",
        "traffic_seconds",
    ] {
        get(profile, key)?.as_number(key)?;
    }
    let engines = get(outcome, "engines")?.as_object("outcome.engines")?;
    let mut engine_cells = 0.0;
    for (engine, tally) in engines {
        let tally = tally.as_object(&format!("outcome.engines.{engine:.64}"))?;
        engine_cells += get(tally, "cells")?.as_number("engine cells")?;
        get(tally, "errors")?.as_number("engine errors")?;
        get(tally, "seconds")?.as_number("engine seconds")?;
    }
    if engine_cells != cells {
        return Err(format!(
            "tally mismatch: engine cells sum to {engine_cells}, outcome.cells is {cells}"
        ));
    }
    Ok(())
}

fn get<'a>(obj: &'a [(String, json::Value)], key: &str) -> Result<&'a json::Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing required key \"{key}\""))
}

/// A self-contained JSON reader, just big enough to validate manifests
/// (strings with the escapes the writer emits, numbers via `f64`
/// parsing, arrays, objects, literals). Not a general-purpose parser —
/// it rejects anything the grammar doesn't cover rather than guessing,
/// including containers nested deeper than [`json::MAX_DEPTH`].
mod json {
    use std::collections::HashSet;

    /// Deepest container nesting the reader accepts. A v5 manifest
    /// nests four levels (document → `outcome` → `engines` → one
    /// engine's tallies); the cap bounds the reader's recursion, so a
    /// file of 200,000 `[` is an error instead of a stack overflow.
    pub const MAX_DEPTH: usize = 64;

    /// A parsed JSON value. Objects keep insertion order (duplicates
    /// would be a writer bug and are rejected).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, read through `f64`.
        Number(f64),
        /// A string literal, unescaped.
        String(String),
        /// `[...]`
        Array(Vec<Value>),
        /// `{...}`
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// What the value is, for an error message: a hostile document
        /// may hold megabytes where an object was expected, so an error
        /// names the kind found, never the value.
        fn kind(&self) -> &'static str {
            match self {
                Value::Null => "null",
                Value::Bool(_) => "a boolean",
                Value::Number(_) => "a number",
                Value::String(_) => "a string",
                Value::Array(_) => "an array",
                Value::Object(_) => "an object",
            }
        }

        pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Object(fields) => Ok(fields),
                other => Err(format!(
                    "{what}: expected an object, found {}",
                    other.kind()
                )),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Array(items) => Ok(items),
                other => Err(format!("{what}: expected an array, found {}", other.kind())),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::String(s) => Ok(s),
                other => Err(format!("{what}: expected a string, found {}", other.kind())),
            }
        }

        pub fn as_number(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Number(n) => Ok(*n),
                other => Err(format!("{what}: expected a number, found {}", other.kind())),
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                ch as char,
                *pos,
                bytes.get(*pos).map(|b| *b as char)
            ))
        }
    }

    /// Parses the value at `pos`, inside `depth` enclosing containers.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!(
                "containers nested deeper than {MAX_DEPTH} levels at byte {pos}",
                pos = *pos
            ));
        }
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos, depth + 1),
            Some(b'[') => parse_array(bytes, pos, depth + 1),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}", pos = *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{code:04x}"))?,
                            );
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or backslash: both
                    // are ASCII, so the run is whole characters of the
                    // input (a &str), and a long string costs linear time
                    let start = *pos;
                    while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&bytes[start..*pos]).expect("input was a str"),
                    );
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        // keys seen so far, so that checking for duplicates is linear
        let mut seen = HashSet::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos, depth)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::StrategySpec;
    use crate::runner::run;

    fn swept() -> (ScenarioGrid, CampaignConfig, CampaignOutcome) {
        let grid = ScenarioGrid::new()
            .ns([10])
            .cs([1])
            .strategies([StrategySpec::Fixed(3), StrategySpec::Fixed(20)]);
        let config = CampaignConfig::default();
        let outcome = run(&grid, &config);
        (grid, config, outcome)
    }

    #[test]
    fn rendered_manifests_validate() {
        let (grid, config, outcome) = swept();
        let text = render_manifest(&grid, &config, &outcome);
        validate_manifest(&text).expect("fresh manifest validates");
        assert!(text.contains(MANIFEST_SCHEMA));
        assert!(text.contains("\"status\": \"completed\""));
        assert!(text.contains("\"skipped\": 0"));
        assert!(text.contains("\"trace_out\": null"));
        assert!(text.contains("\"profile\": {\"setup_seconds\": "));
        assert!(text.contains("\"ok\": 1"));
        assert!(text.contains("\"errors\": 1"));
        assert!(text.contains("\"exact\": {\"cells\": 2"));
    }

    #[test]
    fn every_run_setting_round_trips_from_spec_to_a_validated_manifest() {
        let (grid, _, outcome) = swept();
        let defaults = CampaignConfig::default();
        for setting in RUN_SETTINGS {
            let key = setting.key;
            // a non-default value, written as a spec-file literal (which
            // is also its JSON rendering)
            let literal = match setting.access {
                Access::Count(get, _) => (get(&defaults) + 1).to_string(),
                Access::Switch(get, _) => (!get(&defaults)).to_string(),
                Access::Text(..) => "\"127.0.0.1:9464\"".to_string(),
            };
            let spec = format!(
                "[grid]\nn = 10\nc = 1\nstrategies = \"fixed:3\"\n[run]\n{key} = {literal}\n"
            );
            let (_, config) =
                crate::spec::parse_spec(&spec, &defaults).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_ne!(config, defaults, "{key} never reached CampaignConfig");

            let text = render_manifest(&grid, &config, &outcome);
            validate_manifest(&text).unwrap_or_else(|e| panic!("{key}: {e}"));
            let doc = json::parse(&text).unwrap();
            let rendered = get(doc.as_object("manifest").unwrap(), "config")
                .unwrap()
                .as_object("config")
                .unwrap();
            assert_eq!(
                get(rendered, key).unwrap(),
                &json::parse(&literal).unwrap(),
                "{key}"
            );
            // the config section is the first place every key appears
            let gutted = text.replacen(&format!("\"{key}\":"), "\"renamed\":", 1);
            let err = validate_manifest(&gutted).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn manifests_survive_a_write_read_cycle() {
        let dir = std::env::temp_dir().join("anonroute-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (grid, config, outcome) = swept();
        let path = dir.join("deep/run_manifest.json");
        write_manifest(&path, &grid, &config, &outcome).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_manifest(&text).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let (grid, config, outcome) = swept();
        let good = render_manifest(&grid, &config, &outcome);
        // not JSON at all
        assert!(validate_manifest("nonsense").is_err());
        // truncated document
        assert!(validate_manifest(&good[..good.len() / 2]).is_err());
        // wrong schema tag
        let wrong = good.replace(MANIFEST_SCHEMA, "other/v9");
        assert!(validate_manifest(&wrong).unwrap_err().contains("schema"));
        // missing section
        let gutted = good.replace("\"config\"", "\"renamed\"");
        assert!(validate_manifest(&gutted).unwrap_err().contains("config"));
        // inconsistent tallies
        let skewed = good.replace("\"ok\": 1", "\"ok\": 5");
        assert!(validate_manifest(&skewed)
            .unwrap_err()
            .contains("tally mismatch"));
        // unrecognized sweep status
        let odd = good.replace("\"status\": \"completed\"", "\"status\": \"paused\"");
        assert!(validate_manifest(&odd).unwrap_err().contains("status"));
        // a completed sweep cannot have skipped cells
        let contradictory = good.replace("\"skipped\": 0", "\"skipped\": 1");
        assert!(validate_manifest(&contradictory)
            .unwrap_err()
            .contains("tally mismatch"));
    }

    #[test]
    fn json_reader_handles_escapes_and_rejects_garbage() {
        use super::json::{parse, Value};
        let doc = parse("{\"a\\n\\\"b\": [1, -2.5e1, true, null, \"x\"]}").unwrap();
        let fields = doc.as_object("doc").unwrap();
        assert_eq!(fields[0].0, "a\n\"b");
        let items = fields[0].1.as_array("a").unwrap();
        assert_eq!(items[0], Value::Number(1.0));
        assert_eq!(items[1], Value::Number(-25.0));
        assert_eq!(items[2], Value::Bool(true));
        assert_eq!(items[3], Value::Null);
        assert!(parse("{\"a\":1,\"a\":2}")
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"\\u0041\"").unwrap() == Value::String("A".to_string()));
        // runs of multi-byte characters between escapes come through whole
        let text = parse("\"é😀\\tx\\u00e9ü\"").unwrap();
        assert_eq!(text, Value::String("é😀\txéü".to_string()));
    }

    /// `depth` nested containers, `[` or `{"k":` chosen by `picks`,
    /// around a `0`, each closed again.
    fn nested(depth: usize, picks: &[bool]) -> String {
        let object = |i: usize| picks.get(i).copied().unwrap_or(false);
        let mut text = String::new();
        for i in 0..depth {
            text.push_str(if object(i) { "{\"k\": " } else { "[" });
        }
        text.push('0');
        for i in (0..depth).rev() {
            text.push(if object(i) { '}' } else { ']' });
        }
        text
    }

    #[test]
    fn json_reader_caps_nesting_depth() {
        use super::json::{parse, MAX_DEPTH};
        let hostile = "[".repeat(200_000);
        let err = validate_manifest(&hostile).unwrap_err();
        assert!(err.contains("nested deeper than 64 levels"), "{err}");
        assert!(parse(&nested(MAX_DEPTH, &[true, false])).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1, &[true, false])).is_err());
    }

    /// A one-line object of `keys` distinct keys, all numbers.
    fn wide_object(keys: usize) -> String {
        let fields: Vec<String> = (0..keys).map(|i| format!("\"k{i}\":{i}")).collect();
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn json_reader_reads_wide_objects_and_rejects_any_duplicate() {
        let err = validate_manifest(&wide_object(100_000)).unwrap_err();
        assert_eq!(err, "missing required key \"schema\"");
        let keys = 1_000;
        for at in [0, 1, keys / 2, keys - 1] {
            // the last field repeats field `at`'s key
            let text = wide_object(keys).replacen('}', &format!(",\"k{at}\":0}}"), 1);
            let err = json::parse(&text).unwrap_err();
            assert_eq!(err, format!("duplicate key \"k{at}\""));
        }
        // one key spelled two ways is still one key
        let err = json::parse("{\"a\":1,\"\\u0061\":2}").unwrap_err();
        assert_eq!(err, "duplicate key \"a\"");
    }

    #[test]
    fn type_errors_name_the_kind_found_not_the_value() {
        let huge = "x".repeat(300_000);
        let err = validate_manifest(&format!("\"{huge}\"")).unwrap_err();
        assert_eq!(err, "manifest: expected an object, found a string");
        let (grid, config, outcome) = swept();
        let good = render_manifest(&grid, &config, &outcome);
        let hostile = [
            (good.replacen(MANIFEST_SCHEMA, &huge, 1), "schema mismatch"),
            (
                good.replacen(
                    "\"exact\": {",
                    &format!("\"{huge}\": [\"{huge}\"], \"exact\": {{"),
                    1,
                ),
                "expected an object, found an array",
            ),
        ];
        for (text, want) in hostile {
            let err = validate_manifest(&text).unwrap_err();
            assert!(err.contains(want), "{want}: {}", &err[..err.len().min(200)]);
            assert!(err.len() < 200, "{} bytes: {}", err.len(), &err[..200]);
        }
    }

    /// JSON's own characters, a few it has not, and non-ASCII, so that
    /// arbitrary text often gets deep into the reader.
    const JSON_ALPHABET: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "\"",
        ":",
        ",",
        "\\",
        "u",
        "0",
        "1",
        "9",
        ".",
        "e",
        "-",
        "+",
        "t",
        "r",
        "f",
        "a",
        "l",
        "s",
        "n",
        " ",
        "\n",
        "é",
        "\u{1F600}",
        "x",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn json_reader_never_panics_on_arbitrary_input(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=512),
        ) {
            let text = String::from_utf8_lossy(&raw);
            let _ = super::json::parse(&text);
            let _ = validate_manifest(&text);
            let picked: String = raw
                .iter()
                .map(|&b| JSON_ALPHABET[b as usize % JSON_ALPHABET.len()])
                .collect();
            let _ = super::json::parse(&picked);
            let _ = validate_manifest(&picked);
        }

        #[test]
        fn json_nesting_is_accepted_exactly_up_to_the_cap(
            depth in 0usize..=160,
            picks in proptest::collection::vec(proptest::prelude::any::<bool>(), 160),
        ) {
            let parsed = super::json::parse(&nested(depth, &picks));
            proptest::prop_assert_eq!(parsed.is_ok(), depth <= super::json::MAX_DEPTH);
        }
    }
}
