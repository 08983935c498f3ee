//! End-to-end integration: crypto + simulator + protocols + adversary,
//! validated against the exact analysis.

use anonroute::adversary::{attack_trace, ground_truth_path, Adversary};
use anonroute::core::engine::observe;
use anonroute::prelude::*;
use anonroute::protocols::crowds::crowd;
use anonroute::protocols::onion_routing::onion_network;
use anonroute::protocols::RouteSampler;
use anonroute::sim::{LatencyModel, SimTime, Simulation};

#[test]
fn onion_pipeline_reconstruction_matches_generative_observation() {
    let n = 15;
    let compromised = [12usize, 13, 14];
    let dist = PathLengthDist::uniform(1, 6).unwrap();
    let sampler = RouteSampler::new(n, dist, PathKind::Simple).unwrap();
    let nodes = onion_network(n, &sampler, 2048, b"itest").unwrap();
    let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 10, hi: 100 }, 21);
    for i in 0..300u64 {
        sim.schedule_origination(
            SimTime::from_micros(i * 300),
            (i % n as u64) as usize,
            vec![9],
        );
    }
    sim.run();

    let adv = Adversary::new(n, &compromised).unwrap();
    for o in sim.originations() {
        let reconstructed = adv.reconstruct(sim.trace(), o.msg).unwrap();
        let path = ground_truth_path(sim.trace(), o.msg);
        let expected = observe(o.sender, &path, adv.compromised());
        assert_eq!(reconstructed, expected, "msg {:?}", o.msg);
    }
}

#[test]
fn simulated_attack_tracks_exact_h_star_across_strategies() {
    let n = 25;
    let c = 2;
    let model = SystemModel::new(n, c).unwrap();
    for dist in [
        PathLengthDist::fixed(4),
        PathLengthDist::uniform(2, 7).unwrap(),
    ] {
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let sampler = RouteSampler::new(n, dist.clone(), PathKind::Simple).unwrap();
        let nodes = onion_network(n, &sampler, 2048, b"sweep").unwrap();
        let mut sim = Simulation::new(nodes, LatencyModel::Constant(50), 5);
        let mut salt = 11u64;
        for i in 0..2500u64 {
            salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.schedule_origination(
                SimTime::from_micros(i * 100),
                (salt >> 33) as usize % n,
                vec![],
            );
        }
        sim.run();
        let adv = Adversary::new(n, &[0, 1]).unwrap();
        let report = attack_trace(&adv, &model, &dist, sim.trace(), sim.originations()).unwrap();
        assert!(
            (report.empirical_h_star - exact).abs() < 4.0 * report.std_error + 0.02,
            "dist {dist}: empirical {} vs exact {exact}",
            report.empirical_h_star
        );
    }
}

#[test]
fn crowds_behaves_like_its_analytical_model() {
    let n = 15;
    let pf = 0.5;
    let dist = PathLengthDist::geometric(pf, 30).unwrap();
    let model = SystemModel::with_path_kind(n, 1, PathKind::Cyclic).unwrap();
    let exact = engine::anonymity_degree(&model, &dist).unwrap();

    let mut sim = Simulation::new(crowd(n, pf).unwrap(), LatencyModel::Constant(10), 31);
    let mut salt = 3u64;
    for i in 0..2500u64 {
        salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
        sim.schedule_origination(
            SimTime::from_micros(i * 400),
            (salt >> 33) as usize % n,
            vec![],
        );
    }
    sim.run();
    let adv = Adversary::new(n, &[7]).unwrap();
    let report = attack_trace(&adv, &model, &dist, sim.trace(), sim.originations()).unwrap();
    assert!(
        (report.empirical_h_star - exact).abs() < 4.0 * report.std_error + 0.03,
        "empirical {} vs exact {exact}",
        report.empirical_h_star
    );
}

#[test]
fn deterministic_replay_under_fixed_seed() {
    let n = 10;
    let sampler =
        RouteSampler::new(n, PathLengthDist::uniform(1, 4).unwrap(), PathKind::Simple).unwrap();
    let run = |seed: u64| {
        let nodes = onion_network(n, &sampler, 1024, b"replay").unwrap();
        let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 5, hi: 500 }, seed);
        for i in 0..50u64 {
            sim.schedule_origination(
                SimTime::from_micros(i * 99),
                (i % n as u64) as usize,
                vec![],
            );
        }
        sim.run();
        sim.trace().to_vec()
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78));
}
