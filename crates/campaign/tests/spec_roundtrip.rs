//! Property tests: `Display` ↔ `parse` round-trips for the whole
//! scenario vocabulary — strategy specs, engine kinds, and full
//! scenarios — over generated inputs rather than hand-picked cases; and
//! the spec-file and integer-list parsers against hostile text.

use anonroute_campaign::runner::CampaignConfig;
use anonroute_campaign::spec::{parse_spec, parse_usize_list, MAX_LIST_LEN};
use anonroute_campaign::{
    ChurnModel, EngineKind, EpochSchedule, RotationPolicy, Scenario, StrategySpec,
};
use anonroute_core::PathKind;
use proptest::collection::vec;
use proptest::prelude::*;

/// A spec file exercising every axis and every value form the parser
/// takes: arrays, quoted lists, ranges, booleans and comments.
const VALID_SPEC: &str = "# the optimal-design sweep\n\
[grid]\n\
n = [50, \"100..=101\"]\n\
c = \"1..3\"\n\
paths = \"simple\"\n\
strategies = [\"optimal\", \"optimal:6\", \"uniform:2:8\"]  # two solves\n\
engines = [\"exact\", \"mc\"]\n\
epochs = 1\n\
rotation = \"static\"\n\
churn = \"none\"\n\
[run]\n\
seed = 101\n\
mc_samples = 2000\n\
progress = false\n";

/// Pieces of the spec grammar, so generated text reaches past the first
/// tokenizer error: section headers, keys, separators, range forms and
/// the integer extremes.
const FRAGMENTS: &[&str] = &[
    "[grid]",
    "[run]",
    "[config]",
    "[",
    "]",
    "\n",
    "\r\n",
    " ",
    "=",
    "\"",
    ",",
    "#",
    "..",
    "..=",
    "0",
    "7",
    "100",
    "18446744073709551615",
    "-1",
    "1.5",
    "n",
    "c",
    "strategies",
    "engines",
    "epochs",
    "rotation",
    "churn",
    "paths",
    "seed",
    "threads",
    "mc_samples",
    "progress",
    "metrics_addr",
    "trace_out",
    "true",
    "optimal:",
    "fixed:",
    "uniform:2:",
    "shift:",
    "iid:0.",
    "é",
    "\u{1F600}",
    "\0",
];

/// Renders generated fragment indices as text; indices past the fragment
/// table become arbitrary characters.
fn render(pieces: &[u32]) -> String {
    pieces
        .iter()
        .map(|&k| match FRAGMENTS.get(k as usize) {
            Some(fragment) => fragment.to_string(),
            None => char::from_u32(k).unwrap_or('\u{FFFD}').to_string(),
        })
        .collect()
}

/// Whether `err` is a `line N: …` error with `N` a line of `text`.
fn names_a_line(err: &str, text: &str) -> bool {
    let lines = text.lines().count().max(1);
    err.strip_prefix("line ")
        .and_then(|rest| rest.split_once(": "))
        .and_then(|(n, _)| n.parse::<usize>().ok())
        .is_some_and(|n| (1..=lines).contains(&n))
}

/// Generates an arbitrary epoch schedule from raw parameters; index 0
/// yields the one-shot default so the legacy five-token form stays
/// covered.
fn build_dynamics(variant: usize, epochs: usize, step: usize, millis: usize) -> EpochSchedule {
    let rotation = match variant % 3 {
        0 => RotationPolicy::Static,
        1 => RotationPolicy::Shift { step },
        _ => RotationPolicy::Resample,
    };
    let churn = if variant.is_multiple_of(2) {
        ChurnModel::None
    } else {
        ChurnModel::Iid {
            rate: millis as f64 / 1001.0,
        }
    };
    if variant == 0 {
        EpochSchedule::one_shot()
    } else {
        EpochSchedule {
            epochs: epochs.max(1),
            rotation,
            churn,
        }
    }
}

/// Generates an arbitrary strategy spec from generated raw parameters.
/// Probabilities come in thousandths so their `Display` text is short
/// but still exercises fractional forms.
fn build_strategy(family: usize, a: usize, b: usize, millis: usize) -> StrategySpec {
    let p = millis as f64 / 1000.0;
    match family % 5 {
        0 => StrategySpec::Fixed(a),
        1 => StrategySpec::Uniform(a.min(b), a.max(b)),
        2 => StrategySpec::TwoPoint { lo: a, p, hi: b },
        3 => StrategySpec::Geometric {
            forward_prob: (p * 0.999).min(0.999),
            lmax: b.max(1),
        },
        _ => StrategySpec::Optimal {
            mean: if millis.is_multiple_of(2) {
                None
            } else {
                Some(a as f64 + p)
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strategy_display_parse_round_trips(
        family in 0usize..5,
        a in 0usize..200,
        b in 0usize..200,
        millis in 0usize..1000,
    ) {
        let spec = build_strategy(family, a, b, millis);
        let text = spec.to_string();
        let parsed = StrategySpec::parse(&text);
        prop_assert!(parsed.is_ok(), "`{}` failed to parse", text);
        prop_assert_eq!(parsed.unwrap(), spec);
    }

    #[test]
    fn engine_display_parse_round_trips(index in 0usize..4) {
        let kind = EngineKind::ALL[index];
        prop_assert_eq!(EngineKind::parse(&kind.to_string()).unwrap(), kind);
    }

    #[test]
    fn scenario_display_parse_round_trips(
        n in 1usize..5000,
        c in 0usize..100,
        cyclic in any::<bool>(),
        engine in 0usize..4,
        family in 0usize..5,
        a in 0usize..200,
        b in 0usize..200,
        millis in 0usize..1000,
        dyn_variant in 0usize..12,
        epochs in 1usize..40,
        step in 0usize..10,
    ) {
        let scenario = Scenario {
            n,
            c,
            path_kind: if cyclic { PathKind::Cyclic } else { PathKind::Simple },
            strategy: build_strategy(family, a, b, millis),
            dynamics: build_dynamics(dyn_variant, epochs, step, millis),
            engine: EngineKind::ALL[engine],
        };
        let text = scenario.to_string();
        let parsed = Scenario::parse(&text);
        prop_assert!(parsed.is_ok(), "`{}` failed to parse", text);
        prop_assert_eq!(parsed.unwrap(), scenario);
    }

    #[test]
    fn dynamics_display_parse_round_trips(
        variant in 0usize..12,
        epochs in 1usize..100,
        step in 0usize..20,
        millis in 0usize..1000,
    ) {
        let schedule = build_dynamics(variant, epochs, step, millis);
        let text = schedule.to_string();
        let parsed = EpochSchedule::parse(&text);
        prop_assert!(parsed.is_ok(), "`{}` failed to parse", text);
        prop_assert_eq!(parsed.unwrap(), schedule);
    }

    #[test]
    fn junk_never_round_trips_silently(
        head in 0usize..4,
        n in 0usize..50,
    ) {
        // malformed scenario text must error, not mis-parse: drop a
        // required field or scramble the bracketed engine
        let bad = match head {
            0 => format!("n={n} c=1 simple fixed:1"),
            1 => format!("c=1 n={n} simple fixed:1 [exact]"),
            2 => format!("n={n} c=1 spiral fixed:1 [exact]"),
            _ => format!("n={n} c=1 simple fixed:1 exact"),
        };
        prop_assert!(Scenario::parse(&bad).is_err(), "`{}` parsed", bad);
    }

    #[test]
    fn spec_parsers_never_panic_on_arbitrary_text(
        pieces in vec(0u32..0x100, 0..64),
    ) {
        let text = render(&pieces);
        if let Ok(values) = parse_usize_list(&text) {
            prop_assert!(values.len() <= MAX_LIST_LEN);
        }
        if let Ok((grid, _)) = parse_spec(&text, &CampaignConfig::default()) {
            prop_assert!(grid.ns.len() <= MAX_LIST_LEN && grid.cs.len() <= MAX_LIST_LEN);
        }
    }

    #[test]
    fn mutated_or_truncated_specs_parse_or_name_a_line(
        at in 0usize..VALID_SPEC.len() + 1,
        byte in 0u8..0x80,
        truncate in any::<bool>(),
    ) {
        // ASCII replacements keep the text UTF-8, like the spec itself
        let mut bytes = VALID_SPEC.as_bytes().to_vec();
        if truncate {
            bytes.truncate(at);
        } else if at < bytes.len() {
            bytes[at] = byte;
        } else {
            bytes.push(byte);
        }
        let text = String::from_utf8(bytes).expect("ASCII edits of ASCII text");
        if let Err(err) = parse_spec(&text, &CampaignConfig::default()) {
            prop_assert!(names_a_line(&err, &text), "{:?} gave {:?}", text, err);
        }
    }
}

#[test]
fn the_mutation_base_is_a_valid_spec() {
    let (grid, config) = parse_spec(VALID_SPEC, &CampaignConfig::default()).unwrap();
    assert_eq!(grid.ns, vec![50, 100, 101]);
    assert_eq!(grid.cs, vec![1, 2]);
    assert_eq!(grid.strategies.len(), 3);
    assert_eq!((config.seed, config.mc_samples), (101, 2000));
}
