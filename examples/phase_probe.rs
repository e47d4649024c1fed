//! Quick wall-clock probe of one long walk through the `Network` facade
//! (dev tool); the second pass shows the run repeat its rounds and
//! messages exactly.

use distributed_random_walks::prelude::*;
use std::time::Instant;

fn main() {
    let g = generators::torus2d(64, 64);
    for pass in 0..2 {
        let mut net = Network::builder(&g).seed(1).build();
        let t0 = Instant::now();
        let r = net.run(Request::walk(0, 8192)).unwrap().into_walk();
        println!(
            "pass {pass}: {:?} (rounds {}, msgs {})",
            t0.elapsed(),
            r.rounds,
            r.messages
        );
    }
}
