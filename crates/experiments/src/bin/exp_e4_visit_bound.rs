//! E4 (Lemma 2.6): across `l`, the maximum over nodes of
//! `visits(y) / (d(y) sqrt(l + 1))` stays bounded — no node is visited
//! more than `~O(d(y) sqrt(l))` times.
//!
//! Expected shape: a flat (non-growing) normalized maximum, well under
//! the lemma's `24 log n` w.h.p. constant; the path graph shows the
//! bound is tight up to constants (the paper's remark).

use drw_core::visit_stats::{lemma26_bound, max_normalized_visits, visit_counts};
use drw_experiments::{mean, parallel_trials, table::f3, workloads, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let lens: Vec<u64> = if quick {
        vec![256, 4096]
    } else {
        vec![256, 1024, 4096, 16384, 65536]
    };
    let trials: u64 = if quick { 3 } else { 10 };

    for w in [
        workloads::regular(128),
        workloads::lollipop(12, 12),
        drw_experiments::workloads::Workload {
            name: "path",
            graph: drw_graph::generators::path(128),
        },
    ] {
        let g = &w.graph;
        let mut t = Table::new(
            &format!("E4 normalized max visits on {} (n={})", w.name, g.n()),
            &["l", "max_norm (mean)", "max_norm (max)", "bound/d*sqrt"],
        );
        for &len in &lens {
            let maxima = parallel_trials(trials, 60, |s| {
                let mut rng = StdRng::seed_from_u64(s);
                let counts = visit_counts(g, &[0], len, &mut rng);
                max_normalized_visits(g, &counts, 1, len)
            });
            let bound = lemma26_bound(1, 1, len, g.n()) / ((len + 1) as f64).sqrt();
            t.row(&[
                len.to_string(),
                f3(mean(&maxima)),
                f3(maxima.iter().cloned().fold(0.0, f64::max)),
                f3(bound),
            ]);
        }
        t.emit();
    }
    println!("Lemma 2.6 predicts the normalized max stays O(log n), independent of l.");
}
