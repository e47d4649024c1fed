//! Quickstart: one distributed random-walk sample, three ways — plus a
//! heterogeneous batch through the same `Network` handle.
//!
//! Run with: `cargo run --release --example quickstart`

use distributed_random_walks::prelude::*;
use drw_experiments::{podc09_walk, Podc09Params};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16x16 torus: 256 nodes, diameter 16.
    let g = generators::torus2d(16, 16);
    let source = 0;
    let len = 4096u64;
    println!(
        "graph: {} nodes, {} edges; walk length {len}\n",
        g.n(),
        g.m()
    );

    // 1. The naive token walk: exactly `len` rounds.
    let (dest, rounds) = naive_walk(&g, source, len, 1)?;
    println!("naive:   destination {dest:3}, rounds {rounds}");

    // 2. The PODC 2009 algorithm: ~O(l^{2/3} D^{1/3}) rounds.
    let r09 = podc09_walk(&g, source, len, &Podc09Params::default(), 2)?;
    println!(
        "podc09:  destination {:3}, rounds {} (lambda={}, eta={})",
        r09.destination, r09.rounds, r09.lambda, r09.eta
    );

    // 3. This paper's algorithm, via the service facade: build a
    //    `Network` handle, submit a typed request.
    let mut net = Network::builder(&g).seed(3).build();
    let r10 = net.run(Request::walk(source, len))?.into_walk();
    println!(
        "podc10:  destination {:3}, rounds {} (lambda={}, {} stitches, {} GET-MORE-WALKS)",
        r10.destination, r10.rounds, r10.lambda, r10.stitches, r10.gmw_invocations
    );
    println!(
        "\nbreakdown: BFS {} + phase1 {} + stitching {} + tail {}",
        r10.rounds_bfs, r10.rounds_phase1, r10.rounds_stitch, r10.rounds_tail
    );

    // The stitch trace (the paper's Figure 2).
    println!("\nstitch trace (first 5 segments):");
    for seg in r10.segments.iter().take(5) {
        println!(
            "  connector {:3} --[{} steps, walk ({},{})]--> {:3}  (positions {}..{})",
            seg.connector,
            seg.len,
            seg.id.source,
            seg.id.seq,
            seg.owner,
            seg.start_pos,
            seg.start_pos + seg.len as u64
        );
    }

    // Heterogeneous traffic batches into shared engine runs: the two
    // walks, the spanning tree's doubling phases and the mixing probe
    // multiplex their work items instead of serializing.
    let batch = net.run_batch(vec![
        Request::walk(source, 1024),
        Request::walk(137, 1024),
        Request::spanning_tree(0),
        Request::mixing_probe(0, 256),
    ])?;
    println!(
        "\nbatched {} heterogeneous requests in {} shared session rounds:",
        batch.len(),
        net.session_rounds()
    );
    for (i, resp) in batch.iter().enumerate() {
        println!(
            "  request {i}: {} (rounds billed {})",
            resp.kind(),
            resp.rounds()
        );
    }
    Ok(())
}
