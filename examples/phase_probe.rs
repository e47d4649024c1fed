//! Quick wall-clock probe of one long walk per executor backend (dev
//! tool), driven through the `Network` facade's executor builder knob.

use distributed_random_walks::prelude::*;
use std::time::Instant;

fn main() {
    let g = generators::torus2d(64, 64);
    for round in 0..2 {
        for kind in [ExecutorKind::Sharded, ExecutorKind::Sequential] {
            let mut net = Network::builder(&g).executor(kind).seed(1).build();
            let t0 = Instant::now();
            let r = net.run(Request::walk(0, 8192)).unwrap().into_walk();
            println!(
                "pass {round} {kind:10}: {:?} (rounds {}, msgs {})",
                t0.elapsed(),
                r.rounds,
                r.messages
            );
        }
    }
}
