//! Random spanning trees of a grid, sampled by the distributed
//! Aldous-Broder algorithm (Section 4.1 of the paper) via typed
//! `SpanningTree` requests, with an ASCII rendering and a uniformity
//! sanity check on a small graph.
//!
//! Run with: `cargo run --release --example spanning_tree`

use distributed_random_walks::prelude::*;
use drw_graph::matrix_tree;
use drw_spanning::uniformity_test;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sample a uniform spanning tree of a 6x6 grid.
    let (rows, cols) = (6usize, 6usize);
    let g = generators::grid2d(rows, cols);
    let mut net = Network::builder(&g).seed(7).build();
    let r = net.run(Request::spanning_tree(0))?.into_tree();
    println!(
        "sampled a uniform spanning tree of the {rows}x{cols} grid in {} rounds \
         ({} phases, covering walk length {})\n",
        r.rounds, r.phases, r.cover_len
    );
    assert!(matrix_tree::is_spanning_tree(&g, &r.edges));

    // ASCII render: nodes are '+', tree edges are drawn, non-tree edges
    // are blank.
    let has = |a: usize, b: usize| r.edges.iter().any(|&(u, v)| (u, v) == (a.min(b), a.max(b)));
    for row in 0..rows {
        let mut horiz = String::new();
        let mut vert = String::new();
        for col in 0..cols {
            let v = row * cols + col;
            horiz.push('+');
            if col + 1 < cols {
                horiz.push_str(if has(v, v + 1) { "--" } else { "  " });
            }
            if row + 1 < rows {
                vert.push(if has(v, v + cols) { '|' } else { ' ' });
                if col + 1 < cols {
                    vert.push_str("  ");
                }
            }
        }
        println!("{horiz}");
        if row + 1 < rows {
            println!("{vert}");
        }
    }

    // Uniformity sanity check on K4 (16 spanning trees, exactly counted
    // by Kirchhoff's theorem). Each sample is one request on its own
    // throwaway network, seeded by the sample's index.
    let k4 = generators::complete(4);
    println!(
        "\nK4 has {} spanning trees (matrix-tree theorem); sampling 600...",
        matrix_tree::spanning_tree_count(&k4)
    );
    let samples: Vec<_> = (0..600)
        .map(|s| {
            let mut net = Network::builder(&k4).seed(1000 + s).build();
            net.run(Request::spanning_tree(0))
                .map(|r| r.into_tree().edges)
        })
        .collect::<Result<_, _>>()?;
    let test = uniformity_test(&k4, samples);
    println!(
        "chi-square = {:.2} (dof {}), p = {:.3} -> {}",
        test.statistic,
        test.dof,
        test.p_value,
        if test.passes(0.01) {
            "uniform"
        } else {
            "NOT uniform"
        }
    );
    Ok(())
}
