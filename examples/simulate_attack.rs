//! Runs the full stack — onion crypto, discrete-event network, passive
//! adversary — on a batch of messages and prints the adversary's view of
//! one of them: the reconstructed observation and the Bayesian posterior.
//!
//! Run with: `cargo run --release --example simulate_attack`

use anonroute::adversary::{attack_trace, Adversary};
use anonroute::prelude::*;
use anonroute::protocols::onion_routing::onion_network;
use anonroute::protocols::RouteSampler;
use anonroute::sim::{LatencyModel, SimTime, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 20;
    let compromised_ids = [17, 18, 19];
    let dist = PathLengthDist::uniform(1, 5)?;
    let model = SystemModel::new(n, compromised_ids.len())?;

    // build and run the network
    let sampler = RouteSampler::new(n, dist.clone(), PathKind::Simple)?;
    let nodes = onion_network(n, &sampler, 2048, b"demo-deployment")?;
    let mut sim = Simulation::new(
        nodes,
        LatencyModel::Uniform {
            lo: 2_000,
            hi: 30_000,
        },
        7,
    );
    for i in 0..200u64 {
        sim.schedule_origination(
            SimTime::from_micros(i * 500),
            (i % n as u64) as usize,
            b"ballot".to_vec(),
        );
    }
    sim.run();
    println!(
        "simulated {} messages over {} trace edges, all delivered: {}",
        sim.originations().len(),
        sim.trace().len(),
        sim.deliveries().len() == sim.originations().len()
    );

    // the adversary collects, correlates, reconstructs, and infers
    let adversary = Adversary::new(n, &compromised_ids)?;
    let report = attack_trace(&adversary, &model, &dist, sim.trace(), sim.originations())?;

    println!(
        "\nempirical anonymity degree: {:.4} bits (se {:.4})",
        report.empirical_h_star, report.std_error
    );
    println!(
        "exact analytical value:     {:.4} bits",
        engine::anonymity_degree(&model, &dist)?
    );
    println!(
        "senders fully identified:   {:.1}%",
        report.identification_rate * 100.0
    );

    // zoom into one interesting message: the one the adversary pinned best
    let sharpest = report
        .verdicts
        .iter()
        .min_by(|a, b| a.entropy_bits.partial_cmp(&b.entropy_bits).expect("finite"))
        .expect("at least one message");
    let truth = sim
        .originations()
        .iter()
        .find(|o| o.msg == sharpest.msg)
        .expect("known message");
    println!("\nsharpest observation (message {:?}):", sharpest.msg);
    println!("  posterior entropy: {:.4} bits", sharpest.entropy_bits);
    println!("  adversary's guess: node {}", sharpest.best_guess);
    println!(
        "  true sender:       node {} (assigned prob {:.4})",
        truth.sender, sharpest.true_sender_prob
    );
    let mut top: Vec<(usize, f64)> = sharpest.posterior().into_iter().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("  top suspects:");
    for (node, p) in top.into_iter().take(5).filter(|&(_, p)| p > 0.0) {
        println!("    node {node:>2}: {p:.4}");
    }
    Ok(())
}
