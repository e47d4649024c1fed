//! The private protocols of the decentralized mixing-time estimator
//! (Theorem 4.6): the one-time network-constant setup and the per-probe
//! endpoint evaluation.
//!
//! Per probe length `l`, `K = ceil(c * sqrt(n))` walks of length `l`
//! from the source ride a shared wave, their endpoint bucket ids are
//! shipped to the source by pipelined upcast, and the sample's bucket
//! histogram plus collision statistic are compared PASS/FAIL against
//! the exact bucket masses ([`crate::bucket::BucketTest`]). The
//! scan/refine state machine that picks the probe lengths — `l` doubles
//! until the first PASS, then a binary search pins the smallest passing
//! length (Lemma 4.4 monotonicity) — is `drivers::advance_mixing`,
//! the same for one-shot ([`crate::Network::run`], a batch of one over
//! a private session), batched and service execution.

use crate::bucket::{BucketTest, SampleStats};
use crate::request::MixingProbe;
use crate::single_walk::WalkError;
use drw_congest::primitives::{
    AggOp, BfsTree, BroadcastProtocol, ConvergecastProtocol, UpcastProtocol, VectorSumProtocol,
};
use drw_graph::Graph;

/// The network constants the setup phase collects at the source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeSetup {
    /// `2m` (the degree sum).
    pub two_m: u64,
    /// `sum_v deg(v)^2` (behind `||pi||_2^2`).
    pub sum_deg_sq: u64,
}

/// One-time probe setup over `tree` on `runner`: degree sum (`2m`) +
/// max degree convergecasts and their broadcast (so every node knows
/// its own bucket), `sum deg^2`, then the exact bucket masses by
/// pipelined vector convergecast — `O(D + B)` rounds, once.
pub(crate) fn run_probe_setup(
    g: &Graph,
    bucket_test: &BucketTest,
    tree: &BfsTree,
    runner: &mut drw_congest::Runner,
) -> Result<ProbeSetup, WalkError> {
    let degrees: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
    let squares: Vec<u64> = degrees.iter().map(|&d| d * d).collect();
    let mut sum_deg = ConvergecastProtocol::new(tree, AggOp::Sum, degrees.clone());
    runner.run(&mut sum_deg)?;
    let mut max_deg = ConvergecastProtocol::new(tree, AggOp::Max, degrees);
    runner.run(&mut max_deg)?;
    let mut sq_deg = ConvergecastProtocol::new(tree, AggOp::Sum, squares);
    runner.run(&mut sq_deg)?;
    let two_m = sum_deg.result();
    let sum_deg_sq = sq_deg.result();
    let mut announce = BroadcastProtocol::new(tree.clone(), vec![two_m, max_deg.result()]);
    runner.run(&mut announce)?;

    let mut masses = VectorSumProtocol::new(tree.clone(), bucket_test.mass_numerators(g));
    runner.run(&mut masses)?;
    debug_assert_eq!(
        masses.result().iter().sum::<u64>(),
        2 * g.m() as u64,
        "collected numerators must sum to 2m"
    );
    Ok(ProbeSetup { two_m, sum_deg_sq })
}

/// Evaluates one probe's endpoints: each endpoint node `v` with `c_v`
/// samples ships two node-local pairs to the source — two pipelined
/// upcasts over `tree`, `O(D + K)` rounds: `(bucket_of(v), c_v)` for
/// the histogram, and `(c_v * deg(v), c_v * (c_v - 1))` for the
/// collision moments — and the source runs the bucketed PASS/FAIL
/// test.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_probe(
    g: &Graph,
    bucket_test: &BucketTest,
    tree: &BfsTree,
    runner: &mut drw_congest::Runner,
    destinations: &[drw_graph::NodeId],
    setup: &ProbeSetup,
    len: u64,
    tv_threshold: f64,
    l2_threshold: f64,
) -> Result<MixingProbe, WalkError> {
    let mut c = vec![0u64; g.n()];
    for &d in destinations {
        c[d] += 1;
    }
    let mut hist_items: Vec<Vec<(u64, u64)>> = vec![Vec::new(); g.n()];
    let mut moment_items: Vec<Vec<(u64, u64)>> = vec![Vec::new(); g.n()];
    for v in 0..g.n() {
        if c[v] == 0 {
            continue;
        }
        hist_items[v].push((bucket_test.bucket_of(v) as u64, c[v]));
        moment_items[v].push((c[v] * g.degree(v) as u64, c[v] * (c[v] - 1)));
    }
    let mut up_hist = UpcastProtocol::new(tree.clone(), hist_items);
    runner.run(&mut up_hist)?;
    let mut up_moments = UpcastProtocol::new(tree.clone(), moment_items);
    runner.run(&mut up_moments)?;

    let mut stats = SampleStats {
        bucket_hist: vec![0u64; bucket_test.buckets()],
        ..SampleStats::default()
    };
    for &(bucket, count) in up_hist.collected() {
        stats.bucket_hist[bucket as usize] += count;
    }
    for &(c_deg, collisions) in up_moments.collected() {
        stats.sum_c_deg += c_deg;
        stats.sum_collisions += collisions;
    }
    let r = bucket_test.evaluate(
        &stats,
        setup.two_m,
        setup.sum_deg_sq,
        tv_threshold,
        l2_threshold,
    );
    Ok(MixingProbe {
        len,
        discrepancy: r.discrepancy,
        l2_ratio: r.l2_ratio,
        pass: r.pass,
    })
}
