//! Golden-file regression tests: a tiny campaign's JSONL and CSV
//! artifacts are pinned byte-for-byte, so *any* schema drift — a
//! renamed column, a reordered field, a float formatting change, or a
//! missing epoch column — fails CI loudly instead of silently breaking
//! downstream parsers.
//!
//! The grid deliberately covers the full row vocabulary: a one-shot
//! exact cell (closed form, `p_exposed`, no sampling fields), a
//! multi-epoch exact cell (sampled decay with an `h_epoch1` anchor and
//! `epochs` column), and an infeasible cell (error row). Everything is
//! a pure function of `(grid, config)`, so the bytes are stable across
//! runs and thread counts by the campaign's determinism contract.

use anonroute_campaign::{report, run, CampaignConfig, EngineKind, ScenarioGrid, StrategySpec};

fn golden_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .ns([10])
        .cs([1])
        .strategies([StrategySpec::Fixed(3), StrategySpec::Fixed(20)])
        .epochs([1, 2])
}

fn golden_config() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        seed: 11,
        mc_samples: 2_000,
        ..CampaignConfig::default()
    }
}

/// The pinned JSONL artifact. Regenerate deliberately (and review the
/// diff!) with:
/// `PRINT_GOLDEN=1 cargo test -p anonroute-campaign --test golden -- --nocapture`
const GOLDEN_JSONL: &str = r#"{"cell":0,"n":10,"c":1,"path":"simple","strategy":"fixed:3","family":"fixed","engine":"exact","dynamics":"epochs=1","seed":5833679380957638813,"status":"ok","h_star":2.3807354922057598,"normalized":0.7166727948957861,"mean_len":3,"p_exposed":0.19999999999999996,"std_error":null,"samples":null,"epochs":1,"h_epoch1":null}
{"cell":1,"n":10,"c":1,"path":"simple","strategy":"fixed:3","family":"fixed","engine":"exact","dynamics":"epochs=2","seed":4839782808629744545,"status":"ok","h_star":1.9515582836001042,"normalized":0.587477581650146,"mean_len":3,"p_exposed":null,"std_error":0.04050317429046618,"samples":1000,"epochs":2,"h_epoch1":2.3807354922057598}
{"cell":2,"n":10,"c":1,"path":"simple","strategy":"fixed:20","family":"fixed","engine":"exact","dynamics":"epochs=1","seed":11769803791402734189,"status":"error","error":"invalid path-length distribution: simple paths in an n=10 system support at most 9 intermediate nodes, but the distribution places mass 1.000e0 beyond that"}
{"cell":3,"n":10,"c":1,"path":"simple","strategy":"fixed:20","family":"fixed","engine":"exact","dynamics":"epochs=2","seed":9308485889748266480,"status":"error","error":"invalid path-length distribution: simple paths in an n=10 system support at most 9 intermediate nodes, but the distribution places mass 1.000e0 beyond that"}
"#;

/// The pinned CSV artifact.
const GOLDEN_CSV: &str = r#"cell,n,c,path,strategy,family,engine,dynamics,seed,status,h_star,normalized,mean_len,p_exposed,std_error,samples,epochs,h_epoch1,error
0,10,1,simple,fixed:3,fixed,exact,epochs=1,5833679380957638813,ok,2.3807354922057598,0.7166727948957861,3,0.19999999999999996,,,1,,
1,10,1,simple,fixed:3,fixed,exact,epochs=2,4839782808629744545,ok,1.9515582836001042,0.587477581650146,3,,0.04050317429046618,1000,2,2.3807354922057598,
2,10,1,simple,fixed:20,fixed,exact,epochs=1,11769803791402734189,error,,,,,,,,,invalid path-length distribution: simple paths in an n=10 system support at most 9 intermediate nodes; but the distribution places mass 1.000e0 beyond that
3,10,1,simple,fixed:20,fixed,exact,epochs=2,9308485889748266480,error,,,,,,,,,invalid path-length distribution: simple paths in an n=10 system support at most 9 intermediate nodes; but the distribution places mass 1.000e0 beyond that
"#;

#[test]
fn campaign_jsonl_is_byte_identical_to_the_golden_file() {
    let outcome = run(&golden_grid(), &golden_config());
    let jsonl = report::render_jsonl(&outcome, false);
    if std::env::var_os("PRINT_GOLDEN").is_some() {
        println!(
            "=== JSONL ===\n{jsonl}=== CSV ===\n{}",
            report::render_csv(&outcome)
        );
    }
    assert_eq!(
        jsonl, GOLDEN_JSONL,
        "campaign JSONL schema or values drifted from the golden file"
    );
}

/// Structural companion to the byte pins, so a deliberate regeneration
/// still has its semantics checked: the multi-epoch cell's anchor is
/// bit-identical to the one-shot cell's closed form, and folding a
/// second epoch can only lower the cumulative entropy.
#[test]
fn golden_grid_anchors_epoch_one_to_the_one_shot_value() {
    let outcome = run(&golden_grid(), &golden_config());
    let one_shot = outcome.cells[0].outcome.as_ref().unwrap();
    let multi = outcome.cells[1].outcome.as_ref().unwrap();
    assert_eq!(one_shot.epochs, 1);
    assert_eq!(multi.epochs, 2);
    assert_eq!(
        multi.h_epoch1,
        Some(one_shot.h_star),
        "the decay must start exactly at the single-round H*(S)"
    );
    assert!(multi.h_star <= one_shot.h_star);
    assert!(outcome.cells[2].outcome.is_err());
    assert!(outcome.cells[3].outcome.is_err());
}

#[test]
fn campaign_csv_is_byte_identical_to_the_golden_file() {
    let outcome = run(&golden_grid(), &golden_config());
    let csv = report::render_csv(&outcome);
    assert_eq!(
        csv, GOLDEN_CSV,
        "campaign CSV schema or values drifted from the golden file"
    );
}

/// The observability determinism guard: running the *same* golden grid
/// with the metrics endpoint live (and progress counters registered)
/// must render byte-identical JSONL and CSV. Metrics are write-only
/// sinks — if instrumentation ever feeds back into seeding, scheduling,
/// or scoring, this fails against the same pins as the tests above.
#[test]
fn artifacts_are_byte_identical_with_observability_enabled() {
    let config = CampaignConfig {
        // port 0: a real /metrics endpoint on an ephemeral port, no
        // ticker (stderr noise stays out of test output)
        metrics_addr: Some("127.0.0.1:0".parse().expect("static addr")),
        ..golden_config()
    };
    let outcome = run(&golden_grid(), &config);
    assert_eq!(
        report::render_jsonl(&outcome, false),
        GOLDEN_JSONL,
        "enabling the metrics endpoint changed the JSONL artifact"
    );
    assert_eq!(
        report::render_csv(&outcome),
        GOLDEN_CSV,
        "enabling the metrics endpoint changed the CSV artifact"
    );
}

/// The trace and sampling engines' grid: mc and sim cells, one-shot and
/// two-epoch, on simple paths (onion routing) and cyclic paths (Crowds,
/// hence the geometric strategy). Their bytes depend on every RNG stream
/// the backends draw from — cell seeds, salts, origination schedules,
/// key labels, epoch seeds — so a refactor that reorders a draw fails
/// here even when the estimates stay statistically sound.
fn sampled_golden_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .ns([12])
        .cs([1])
        .path_kinds([
            anonroute_core::PathKind::Simple,
            anonroute_core::PathKind::Cyclic,
        ])
        .strategies([StrategySpec::Geometric {
            forward_prob: 0.5,
            lmax: 6,
        }])
        .engines([EngineKind::MonteCarlo, EngineKind::Simulated])
        .epochs([1, 2])
}

fn sampled_golden_config() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        seed: 13,
        mc_samples: 400,
        sim_messages: 60,
        ..CampaignConfig::default()
    }
}

/// The pinned JSONL of [`sampled_golden_grid`]. Regenerate deliberately
/// with the `PRINT_GOLDEN` command above.
const SAMPLED_GOLDEN_JSONL: &str = r#"{"cell":0,"n":12,"c":1,"path":"simple","strategy":"geometric:0.5:6","family":"geometric","engine":"mc","dynamics":"epochs=1","seed":14180207640020093695,"status":"ok","h_star":2.8976777554871744,"normalized":0.8082867686633468,"mean_len":1.96875,"p_exposed":null,"std_error":0.047038503205734,"samples":400,"epochs":1,"h_epoch1":null}
{"cell":1,"n":12,"c":1,"path":"simple","strategy":"geometric:0.5:6","family":"geometric","engine":"mc","dynamics":"epochs=2","seed":6063221543909367921,"status":"ok","h_star":2.766586324025543,"normalized":0.7717197386218162,"mean_len":1.96875,"p_exposed":null,"std_error":0.05533365078133057,"samples":200,"epochs":2,"h_epoch1":2.9895382848644645}
{"cell":2,"n":12,"c":1,"path":"simple","strategy":"geometric:0.5:6","family":"geometric","engine":"sim","dynamics":"epochs=1","seed":11674071465944544456,"status":"ok","h_star":3.0120146176202933,"normalized":0.8401802297832661,"mean_len":1.96875,"p_exposed":null,"std_error":0.1086363137656329,"samples":60,"epochs":1,"h_epoch1":null}
{"cell":3,"n":12,"c":1,"path":"simple","strategy":"geometric:0.5:6","family":"geometric","engine":"sim","dynamics":"epochs=2","seed":5378838118255245427,"status":"ok","h_star":2.7776856460950343,"normalized":0.7748158162146107,"mean_len":1.96875,"p_exposed":null,"std_error":0.11776575465062301,"samples":30,"epochs":2,"h_epoch1":3.0342939498419543}
{"cell":4,"n":12,"c":1,"path":"cyclic","strategy":"geometric:0.5:6","family":"geometric","engine":"mc","dynamics":"epochs=1","seed":15063182406006667107,"status":"ok","h_star":3.0629922647835186,"normalized":0.8544000848453401,"mean_len":1.96875,"p_exposed":null,"std_error":0.04502317162858219,"samples":400,"epochs":1,"h_epoch1":null}
{"cell":5,"n":12,"c":1,"path":"cyclic","strategy":"geometric:0.5:6","family":"geometric","engine":"mc","dynamics":"epochs=2","seed":6445725183182362148,"status":"ok","h_star":2.863529204479099,"normalized":0.7987612712554365,"mean_len":1.96875,"p_exposed":null,"std_error":0.0683766013889189,"samples":200,"epochs":2,"h_epoch1":3.0598467081103418}
{"cell":6,"n":12,"c":1,"path":"cyclic","strategy":"geometric:0.5:6","family":"geometric","engine":"sim","dynamics":"epochs=1","seed":13390128619908158103,"status":"ok","h_star":2.9836411761506327,"normalized":0.832265658441459,"mean_len":1.96875,"p_exposed":null,"std_error":0.13632225916013954,"samples":60,"epochs":1,"h_epoch1":null}
{"cell":7,"n":12,"c":1,"path":"cyclic","strategy":"geometric:0.5:6","family":"geometric","engine":"sim","dynamics":"epochs=2","seed":7257335845043740244,"status":"ok","h_star":2.542909566171202,"normalized":0.7093266849122317,"mean_len":1.96875,"p_exposed":null,"std_error":0.26280249813338463,"samples":30,"epochs":2,"h_epoch1":2.5793186827691863}
"#;

/// The pinned CSV of [`sampled_golden_grid`].
const SAMPLED_GOLDEN_CSV: &str = r#"cell,n,c,path,strategy,family,engine,dynamics,seed,status,h_star,normalized,mean_len,p_exposed,std_error,samples,epochs,h_epoch1,error
0,12,1,simple,geometric:0.5:6,geometric,mc,epochs=1,14180207640020093695,ok,2.8976777554871744,0.8082867686633468,1.96875,,0.047038503205734,400,1,,
1,12,1,simple,geometric:0.5:6,geometric,mc,epochs=2,6063221543909367921,ok,2.766586324025543,0.7717197386218162,1.96875,,0.05533365078133057,200,2,2.9895382848644645,
2,12,1,simple,geometric:0.5:6,geometric,sim,epochs=1,11674071465944544456,ok,3.0120146176202933,0.8401802297832661,1.96875,,0.1086363137656329,60,1,,
3,12,1,simple,geometric:0.5:6,geometric,sim,epochs=2,5378838118255245427,ok,2.7776856460950343,0.7748158162146107,1.96875,,0.11776575465062301,30,2,3.0342939498419543,
4,12,1,cyclic,geometric:0.5:6,geometric,mc,epochs=1,15063182406006667107,ok,3.0629922647835186,0.8544000848453401,1.96875,,0.04502317162858219,400,1,,
5,12,1,cyclic,geometric:0.5:6,geometric,mc,epochs=2,6445725183182362148,ok,2.863529204479099,0.7987612712554365,1.96875,,0.0683766013889189,200,2,3.0598467081103418,
6,12,1,cyclic,geometric:0.5:6,geometric,sim,epochs=1,13390128619908158103,ok,2.9836411761506327,0.832265658441459,1.96875,,0.13632225916013954,60,1,,
7,12,1,cyclic,geometric:0.5:6,geometric,sim,epochs=2,7257335845043740244,ok,2.542909566171202,0.7093266849122317,1.96875,,0.26280249813338463,30,2,2.5793186827691863,
"#;

#[test]
fn sampled_engine_artifacts_are_byte_identical_to_the_golden_file() {
    let outcome = run(&sampled_golden_grid(), &sampled_golden_config());
    let jsonl = report::render_jsonl(&outcome, false);
    let csv = report::render_csv(&outcome);
    if std::env::var_os("PRINT_GOLDEN").is_some() {
        println!("=== SAMPLED JSONL ===\n{jsonl}=== SAMPLED CSV ===\n{csv}");
    }
    assert_eq!(outcome.error_count(), 0, "{jsonl}");
    assert_eq!(
        jsonl, SAMPLED_GOLDEN_JSONL,
        "mc/sim JSONL values drifted from the golden file"
    );
    assert_eq!(
        csv, SAMPLED_GOLDEN_CSV,
        "mc/sim CSV values drifted from the golden file"
    );
}

/// The live engine's grid: one-shot and two-epoch cells over real
/// loopback TCP relays. The attack reads only who sent to whom and when,
/// and the cell's seed fixes every route, nonce and junk byte, so the
/// rendered bytes are as stable as the sampled engines' even though
/// socket timing varies. A change to the onion layer's cryptography must
/// leave them alone.
fn live_golden_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .ns([6])
        .cs([1])
        .strategies([StrategySpec::Uniform(1, 2)])
        .engines([EngineKind::Live])
        .epochs([1, 2])
}

fn live_golden_config() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        seed: 13,
        live_messages: 40,
        ..CampaignConfig::default()
    }
}

/// The pinned JSONL of [`live_golden_grid`]. Regenerate deliberately
/// with the `PRINT_GOLDEN` command above.
const LIVE_GOLDEN_JSONL: &str = r#"{"cell":0,"n":6,"c":1,"path":"simple","strategy":"uniform:1:2","family":"uniform","engine":"live","dynamics":"epochs=1","seed":14180207640020093695,"status":"ok","h_star":1.7,"normalized":0.6576497722987207,"mean_len":1.5,"p_exposed":null,"std_error":0.11291589790636215,"samples":40,"epochs":1,"h_epoch1":null}
{"cell":1,"n":6,"c":1,"path":"simple","strategy":"uniform:1:2","family":"uniform","engine":"live","dynamics":"epochs=2","seed":6063221543909367921,"status":"ok","h_star":1.404411542132474,"normalized":0.5433005475865393,"mean_len":1.5,"p_exposed":null,"std_error":0.16162430106760978,"samples":20,"epochs":2,"h_epoch1":1.8}
"#;

/// The pinned CSV of [`live_golden_grid`].
const LIVE_GOLDEN_CSV: &str = r#"cell,n,c,path,strategy,family,engine,dynamics,seed,status,h_star,normalized,mean_len,p_exposed,std_error,samples,epochs,h_epoch1,error
0,6,1,simple,uniform:1:2,uniform,live,epochs=1,14180207640020093695,ok,1.7,0.6576497722987207,1.5,,0.11291589790636215,40,1,,
1,6,1,simple,uniform:1:2,uniform,live,epochs=2,6063221543909367921,ok,1.404411542132474,0.5433005475865393,1.5,,0.16162430106760978,20,2,1.8,
"#;

#[test]
fn live_engine_artifacts_are_byte_identical_to_the_golden_file() {
    let outcome = run(&live_golden_grid(), &live_golden_config());
    let jsonl = report::render_jsonl(&outcome, false);
    let csv = report::render_csv(&outcome);
    if std::env::var_os("PRINT_GOLDEN").is_some() {
        println!("=== LIVE JSONL ===\n{jsonl}=== LIVE CSV ===\n{csv}");
    }
    assert_eq!(outcome.error_count(), 0, "{jsonl}");
    assert_eq!(
        jsonl, LIVE_GOLDEN_JSONL,
        "live JSONL values drifted from the golden file"
    );
    assert_eq!(
        csv, LIVE_GOLDEN_CSV,
        "live CSV values drifted from the golden file"
    );
}
