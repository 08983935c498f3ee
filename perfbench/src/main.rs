//! The benchmark's Rust half: reference values for the output checks,
//! and the traced replay that yields the per-layer metrics.
//!
//! ```text
//! perfbench reference <campaign flags>
//! perfbench trace <campaign flags>
//! ```
//!
//! `<campaign flags>` are the grid and run flags handed to
//! `anonroute campaign` for the same workload (`--n --c --strategies
//! --engines [--epochs --rotation --churn] --seed --mc-samples --messages
//! --live-messages --live-cell`); both commands expand them with the
//! campaign's own grid parser, so they see exactly the cells the CLI ran.
//! Each prints one JSON object on stdout. `run.py` drives both.

mod replay;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use anonroute::campaign::{spec, CampaignConfig, Scenario, StrategySpec};
use anonroute::core::{engine, optimize, PathLengthDist, SystemModel};

use replay::{crypto_probe, median, percentile, CellOut};
use span::Tracer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "reference" => {
            parse(rest).and_then(|(cells, _)| reference(&cells))
        }
        Some((cmd, rest)) if cmd == "trace" => {
            parse(rest).map(|(cells, config)| trace(&cells, &config))
        }
        _ => Err("usage: perfbench <reference|trace> <campaign flags>".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses the campaign flags into the grid's cells and the run config.
fn parse(args: &[String]) -> Result<(Vec<Scenario>, CampaignConfig), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(&key[2..], value);
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let text = |key: &str| flags.get(key).copied().unwrap_or("");
    let number = |key: &str, default: usize| -> Result<usize, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{key}: {e}"))
        })
    };
    let grid = spec::grid_from_flags(
        text("n"),
        text("c"),
        text("paths"),
        text("strategies"),
        text("engines"),
        text("epochs"),
        text("rotation"),
        text("churn"),
    )?;
    let defaults = CampaignConfig::default();
    let config = CampaignConfig {
        threads: 1,
        seed: flags
            .get("seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        mc_samples: number("mc-samples", defaults.mc_samples)?,
        sim_messages: number("messages", defaults.sim_messages)?,
        live_messages: number("live-messages", defaults.live_messages)?,
        live_cell_size: number("live-cell", defaults.live_cell_size)?,
        ..defaults
    };
    Ok((grid.cells(), config))
}

/// A JSON number, or `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn opt(x: Option<f64>) -> String {
    x.map_or("null".into(), num)
}

/// One-round reference values for a cell's model and strategy: the
/// closed-form `H*`, the per-message standard deviation of the posterior
/// entropy (for sampled engines' error bars), and, for `optimal:M`, the
/// best uniform strategy of mean `M`.
fn cell_reference(
    model: &SystemModel,
    dist: &PathLengthDist,
    strategy: &StrategySpec,
) -> Result<String, String> {
    let exact = engine::anonymity_degree(model, dist).map_err(|e| e.to_string())?;
    let analysis = engine::analysis(model, dist).map_err(|e| e.to_string())?;
    let second_moment: f64 = analysis
        .classes
        .iter()
        .map(|c| c.probability * c.entropy_bits * c.entropy_bits)
        .sum();
    let sigma = (second_moment - exact * exact).max(0.0).sqrt();
    let best_uniform = match *strategy {
        StrategySpec::Optimal { mean: Some(m) } if m.fract() == 0.0 => {
            let lmax = (model.n() - 1).min(2 * m.ceil() as usize + 20);
            let (_, outcome) = optimize::best_uniform_with_mean(model, lmax, m as usize)
                .map_err(|e| e.to_string())?;
            Some(outcome.h_star)
        }
        _ => None,
    };
    Ok(format!(
        "\"exact\":{},\"sigma\":{},\"best_uniform\":{}",
        num(exact),
        num(sigma),
        opt(best_uniform)
    ))
}

/// `reference`: per cell, the reference values the untraced run's
/// outputs are checked against. Strategies are realized with the
/// campaign's own `StrategySpec::realize`, once per distinct scenario
/// model and strategy.
fn reference(cells: &[Scenario]) -> Result<String, String> {
    let mut memo: BTreeMap<String, String> = BTreeMap::new();
    let mut out = String::from("{\"cells\":[");
    for (index, s) in cells.iter().enumerate() {
        let key = format!("{} {} {} {}", s.n, s.c, s.path_kind, s.strategy);
        if !memo.contains_key(&key) {
            let model =
                SystemModel::with_path_kind(s.n, s.c, s.path_kind).map_err(|e| e.to_string())?;
            let dist = s.strategy.realize(&model)?;
            memo.insert(key.clone(), cell_reference(&model, &dist, &s.strategy)?);
        }
        if index > 0 {
            out.push(',');
        }
        write!(out, "{{\"cell\":{index},{}}}", memo[&key]).expect("writing to a String");
    }
    out.push_str("]}");
    Ok(out)
}

/// `trace`: one traced replay of the sweep, then the crypto probe on the
/// live cells' keys. Prints per-cell results with their reference values,
/// the per-layer metrics, and the span summary.
fn trace(cells: &[Scenario], config: &CampaignConfig) -> String {
    let mut t = Tracer::new();
    let start = t.now();
    let run = replay::replay(cells, config, &mut t);
    let wall = t.now() - start;
    let covered = t.covered_since(start);
    let crypto = (!run.live_cells.is_empty()).then(|| crypto_probe(&run.live_cells));

    let mut failures: Vec<String> = Vec::new();
    let mut cell_json = Vec::new();
    for (index, cell) in run.cells.iter().enumerate() {
        match cell {
            Ok(c) => cell_json.push(cell_line(index, c).unwrap_or_else(|e| {
                failures.push(format!("cell {index}: reference failed: {e}"));
                format!("{{\"cell\":{index},\"error\":\"reference\"}}")
            })),
            Err(e) => {
                failures.push(format!("cell {index}: {e}"));
                cell_json.push(format!("{{\"cell\":{index},\"error\":\"replay\"}}"));
            }
        }
    }
    if let Some(c) = &crypto {
        if c.failures > 0 {
            failures.push(format!("{} crypto round trips failed", c.failures));
        }
    }

    let relay = &run.relay;
    let folds = t.counter("epochs.folds");
    let mut latencies: Vec<f64> = relay
        .latencies_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    let sim_run = t.total("sim.run");
    let metrics: Vec<(&str, f64)> = vec![
        ("optimize.solve_s", t.total("optimize.solve")),
        ("optimize.solves", t.counter("optimize.solves") as f64),
        (
            "optimize.evaluations",
            t.counter("optimize.evaluations") as f64,
        ),
        ("engine.analyze_s", t.total("engine.analyze")),
        ("engine.mc_s", t.total("engine.mc")),
        ("engine.mc_samples", t.counter("engine.mc_samples") as f64),
        (
            "engine.workspace_build_s",
            t.total("engine.workspace_build"),
        ),
        ("engine.posterior_s", t.total("engine.posterior")),
        ("engine.posteriors", t.counter("engine.posteriors") as f64),
        (
            "protocols.network_build_s",
            t.total("protocols.network_build"),
        ),
        ("protocols.keys", t.counter("protocols.keys") as f64),
        ("sim.run_s", sim_run),
        ("sim.events", t.counter("sim.events") as f64),
        (
            "sim.events_per_s",
            ratio(t.counter("sim.events") as f64, sim_run),
        ),
        ("adversary.reconstruct_s", t.total("adversary.reconstruct")),
        ("adversary.attack_s", t.total("adversary.attack")),
        (
            "adversary.messages_attacked",
            t.counter("adversary.messages_attacked") as f64,
        ),
        (
            "adversary.intersection_s",
            t.total("adversary.intersection"),
        ),
        ("epochs.realize_s", t.total("epochs.realize")),
        ("epochs.fold_s", t.total("epochs.fold")),
        ("epochs.folds", folds as f64),
        (
            "epochs.sparse_share",
            ratio(t.counter("epochs.sparse_folds") as f64, folds as f64),
        ),
        ("relay.boot_s", relay.boot_s),
        ("relay.traffic_s", relay.traffic_s),
        ("relay.teardown_s", relay.teardown_s),
        (
            "relay.msgs_per_s",
            ratio(relay.messages as f64, relay.traffic_s),
        ),
        ("relay.cells_relayed", relay.cells_relayed as f64),
        ("relay.dropped", relay.dropped as f64),
        ("relay.latency_p50_ms", median(&mut latencies)),
        ("relay.latency_p99_ms", percentile(&mut latencies, 0.99)),
        ("relay.latency_samples", latencies.len() as f64),
        (
            "crypto.handshake_us",
            crypto.as_ref().map_or(0.0, |c| c.handshake_us),
        ),
        (
            "crypto.onion_seal_us",
            crypto.as_ref().map_or(0.0, |c| c.seal_us),
        ),
        ("crypto.peel_us", crypto.as_ref().map_or(0.0, |c| c.peel_us)),
    ];

    let mut out = String::new();
    write!(
        out,
        "{{\"wall_s\":{},\"covered_s\":{},\"cells\":[{}],\"failures\":[{}],\"metrics\":{{",
        num(wall),
        num(covered),
        cell_json.join(","),
        failures
            .iter()
            .map(|f| format!("{:?}", f))
            .collect::<Vec<_>>()
            .join(",")
    )
    .expect("writing to a String");
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    out.push_str(&rendered.join(","));
    out.push_str("},\"spans\":{");
    let spans: Vec<String> = t
        .summary()
        .iter()
        .map(|(name, calls, secs)| format!("\"{name}\":[{calls},{}]", num(*secs)))
        .collect();
    out.push_str(&spans.join(","));
    out.push_str("}}");
    out
}

/// One replayed cell's outcome with its reference values.
fn cell_line(index: usize, c: &CellOut) -> Result<String, String> {
    let s = &c.score;
    let curve: Vec<String> = s
        .curve
        .iter()
        .map(|(mean, sessions)| format!("[{},{sessions}]", num(*mean)))
        .collect();
    Ok(format!(
        "{{\"cell\":{},\"engine\":\"{}\",\"strategy\":\"{}\",\"h_star\":{},\"std_error\":{},\"samples\":{},\
         \"h_epoch1\":{},\"curve\":[{}],\"delivered\":{},{}}}",
        index,
        c.engine,
        c.strategy,
        num(s.h_star),
        opt(s.std_error),
        s.samples.map_or("null".into(), |k| k.to_string()),
        opt(s.h_epoch1()),
        curve.join(","),
        s.delivered,
        cell_reference(&c.model, &c.dist, &c.strategy)?
    ))
}
