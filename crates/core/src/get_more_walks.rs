//! `GET-MORE-WALKS` (Algorithm 2): replenish the short walks of a drained
//! connector.
//!
//! The paper's version is *aggregated*: because all new walks share the
//! single source `v`, nodes forward only `(v, count)` pairs — one message
//! per edge per round, hence `O(lambda)` rounds regardless of how many
//! walks are created (Lemma 2.2). The random lengths in
//! `[lambda, 2*lambda - 1]` are realized *on the fly* by reservoir
//! sampling (Vitter \[32\]): after the `lambda`-th step, each surviving
//! token stops with probability `1 / (lambda - i)` at extension step `i`,
//! which makes every length in the range equally likely (Lemma 2.4) —
//! sampling the lengths upfront would require per-walk messages and
//! reintroduce congestion.
//!
//! The price of aggregation is that individual trajectories are erased,
//! so these walks cannot be replayed for walk regeneration. Callers that
//! need replayability (e.g. random spanning trees) use the *per-token*
//! variant instead, trading congestion for traceability. The ablation
//! experiment A1/E1 quantifies that trade.
//!
//! Both variants run as arms of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]), launched by the lane whose sampling
//! epoch found its connector drained. This module holds the two local
//! sampling rules of the aggregated arm: the one-hop scatter and the
//! on-the-fly length rule.

use rand::rngs::StdRng;
use rand::Rng;

/// Sequence-number sentinel for aggregated (non-replayable) walks.
pub const AGGREGATED_SEQ: u32 = u32::MAX;

/// `Binomial(n, p)` by direct simulation; `n` here is at most the number
/// of tokens at one node, small enough that O(n) drawing is free local
/// computation.
fn binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    (0..n).filter(|_| rng.random_bool(p)).count() as u64
}

/// Draws one random-neighbor choice per token and returns how many of
/// `count` indistinguishable tokens leave over each of the node's `deg`
/// neighbor slots — the aggregated one-hop scatter of Algorithm 2.
pub fn scatter_counts(rng: &mut StdRng, deg: usize, count: u64) -> Vec<u64> {
    let mut per_neighbor = vec![0u64; deg];
    for _ in 0..count {
        per_neighbor[rng.random_range(0..deg)] += 1;
    }
    per_neighbor
}

/// The on-the-fly length rule of Lemma 2.4 for a batch of `arrived`
/// aggregated tokens whose current node is the `step`-th of their walk:
/// returns `(stopped, moving)`.
///
/// Before step `lambda` every token keeps moving; at extension step
/// `i = step - lambda` each survivor stops with probability
/// `1 / (lambda - i)` (everything stops at `2*lambda - 1`), which makes
/// every length in `[lambda, 2*lambda - 1]` equally likely. With
/// `randomize_len == false` all tokens stop exactly at `lambda`
/// (the 2009-style fixed-length ablation).
pub fn reservoir_split(
    rng: &mut StdRng,
    arrived: u64,
    step: u32,
    lambda: u32,
    randomize_len: bool,
) -> (u64, u64) {
    if !randomize_len {
        if step == lambda {
            (arrived, 0)
        } else {
            (0, arrived)
        }
    } else if step < lambda {
        (0, arrived)
    } else {
        let i = step - lambda;
        if i == lambda - 1 {
            (arrived, 0)
        } else {
            let p = 1.0 / f64::from(lambda - i);
            let s = binomial(rng, arrived, p);
            (s, arrived - s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_split_conserves_tokens() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let lambda = 6u32;
        for step in 1..2 * lambda {
            let (stopped, moving) = reservoir_split(&mut rng, 100, step, lambda, true);
            assert_eq!(stopped + moving, 100, "step {step}");
            if step < lambda {
                assert_eq!(stopped, 0, "no stop before lambda");
            }
            if step == 2 * lambda - 1 {
                assert_eq!(moving, 0, "everything stops at 2*lambda - 1");
            }
        }
        // Fixed-length mode: the only stop is exactly at lambda.
        assert_eq!(reservoir_split(&mut rng, 7, lambda, lambda, false), (7, 0));
        assert_eq!(
            reservoir_split(&mut rng, 7, lambda - 1, lambda, false),
            (0, 7)
        );
    }

    #[test]
    fn scatter_counts_conserve_tokens() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let per = scatter_counts(&mut rng, 5, 200);
        assert_eq!(per.len(), 5);
        assert_eq!(per.iter().sum::<u64>(), 200);
    }
}
