//! Decentralized mixing-time estimation (Section 4.2): a network
//! monitors its own expansion, the paper's "topologically self-aware
//! networks" motivation — served as a typed `MixingTime` request.
//!
//! Run with: `cargo run --release --example mixing_time`

use distributed_random_walks::prelude::*;
use drw_mixing::{conductance_interval, ground_truth, spectral_gap_interval};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);

    // Two networks of similar size, wildly different expansion.
    let expander = generators::random_regular(64, 6, &mut rng);
    let ring = generators::cycle(65);

    for (name, g) in [
        ("6-regular expander (n=64)", &expander),
        ("cycle (n=65)", &ring),
    ] {
        let mut net = Network::builder(g).seed(17).build();
        let est = net
            .run(Request::MixingTime(MixingRequest::full_estimate(0)))?
            .into_mixing();
        let exact = ground_truth::exact_tau_mix(g, 0, 1 << 18);
        let gap = spectral_gap_interval(est.tau_estimate.max(1), g.n());
        let phi = conductance_interval(gap);
        println!("{name}:");
        println!(
            "  estimated tau_mix ~ {} (exact tau_mix = {:?}) in {} rounds over {} probes",
            est.tau_estimate,
            exact,
            est.rounds,
            est.probes.len()
        );
        println!("  spectral gap in {gap},  conductance in {phi}");
        println!(
            "  probe trail: {}\n",
            est.probes
                .iter()
                .map(|p| format!("l={}:{}", p.len, if p.pass { "PASS" } else { "fail" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    println!("The expander's estimated mixing time should be orders of magnitude smaller.");
    Ok(())
}
