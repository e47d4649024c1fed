//! Deterministic per-node random-number streams.
//!
//! Every node of a protocol run gets its own `StdRng`, derived from a
//! single global seed by a SplitMix64 mix. This keeps runs reproducible
//! while preserving the node-local discipline of the CONGEST model (a
//! node's randomness is private to it).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64-style mix of a seed with a stream index; used to derive
/// independent sub-seeds for nodes and for sequentially composed
/// sub-protocols.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A pool of per-node RNGs for one protocol run.
///
/// Streams are keyed by *node id*, not by pool size: node `v`'s stream
/// is `derive_seed(seed, v)` whatever `n` is. This is the epoch-
/// determinism contract dynamic topologies rely on — growing the
/// network (a node-add delta) extends the pool with fresh streams while
/// every pre-existing node's stream stays bit-identical, so a delta can
/// never perturb the randomness of nodes it did not touch.
#[derive(Debug)]
pub struct NodeRngs {
    rngs: Vec<StdRng>,
}

impl NodeRngs {
    /// Creates `n` independent streams from `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        NodeRngs {
            rngs: (0..n)
                .map(|v| StdRng::seed_from_u64(derive_seed(seed, v as u64)))
                .collect(),
        }
    }

    /// The private RNG of `node`.
    pub fn node(&mut self, node: usize) -> &mut StdRng {
        &mut self.rngs[node]
    }

    /// All streams as one slice (index = node id) — how the sharded
    /// executor carves per-node exclusive access without locks.
    pub fn as_mut_slice(&mut self) -> &mut [StdRng] {
        &mut self.rngs
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derive_seed_changes_with_stream() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn streams_are_prefix_stable_under_growth() {
        // The node-add epoch-determinism regression: a pool over a grown
        // network must give every pre-existing node the exact stream it
        // had before the growth, because streams are keyed by node id
        // via derive_seed(seed, node) — never by pool size.
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut small = NodeRngs::new(seed, 5);
            let mut grown = NodeRngs::new(seed, 9);
            for v in 0..5 {
                let a: [u64; 4] = std::array::from_fn(|_| small.node(v).random());
                let b: [u64; 4] = std::array::from_fn(|_| grown.node(v).random());
                assert_eq!(a, b, "node {v} stream changed under growth (seed {seed})");
            }
        }
    }

    #[test]
    fn node_streams_are_independent_and_reproducible() {
        let mut p1 = NodeRngs::new(5, 3);
        let mut p2 = NodeRngs::new(5, 3);
        let a1: u64 = p1.node(0).random();
        let a2: u64 = p2.node(0).random();
        assert_eq!(a1, a2);
        let b1: u64 = p1.node(1).random();
        assert_ne!(a1, b1, "distinct nodes get distinct streams");
        assert_eq!(p1.len(), 3);
        assert!(!p1.is_empty());
    }
}
