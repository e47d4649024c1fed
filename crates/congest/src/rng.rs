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

/// A permutation of `0..len` drawn from `seed` by Fisher–Yates over
/// [`derive_seed`] — the checker's scripted orders, a pure function of
/// the seed.
pub(crate) fn shuffled(seed: u64, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A pool of per-node RNGs, reused run after run.
///
/// Streams are keyed by *node id*, not by pool size: node `v`'s stream
/// is `derive_seed(seed, v)` whatever `n` is. This is the epoch-
/// determinism contract dynamic topologies rely on — growing the
/// network (a node-add delta) extends the pool with fresh streams while
/// every pre-existing node's stream stays bit-identical, so a delta can
/// never perturb the randomness of nodes it did not touch.
///
/// Streams are *derived on first use*: a slot carries the stamp of the
/// run it was last seeded for, and [`NodeRngs::rebind`] starts a run by
/// bumping the pool's stamp — O(1) however many nodes there are. A run
/// that draws from 33 of 131072 nodes seeds 33 streams, and every
/// stream is the one an eagerly seeded pool would have held.
#[derive(Debug, Default)]
pub struct NodeRngs {
    key: RunKey,
    slots: Vec<Slot>,
}

/// What a slot needs to (re)derive its stream: the run's seed and stamp.
#[derive(Debug, Clone, Copy, Default)]
struct RunKey {
    seed: u64,
    run: u64,
}

/// One node's stream and the stamp of the run it was seeded for (0:
/// never).
#[derive(Debug, Clone)]
struct Slot {
    run: u64,
    rng: StdRng,
}

impl NodeRngs {
    /// Creates `n` independent streams from `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        let mut rngs = NodeRngs::default();
        rngs.rebind(seed, n);
        rngs
    }

    /// Starts a new run of `n` nodes under `seed`: every stream reads as
    /// not yet derived. Costs the change in `n`, nothing when it is the
    /// same — except once per 2^64 runs, when the stamp wraps: then
    /// every slot is reset to "never" and stamping restarts at 1, so no
    /// stale stamp can match a reused one.
    pub fn rebind(&mut self, seed: u64, n: usize) {
        let run = self.key.run.checked_add(1).unwrap_or_else(|| {
            for slot in &mut self.slots {
                slot.run = 0;
            }
            1
        });
        self.key = RunKey { seed, run };
        if self.slots.len() != n {
            let never = Slot {
                run: 0,
                rng: StdRng::seed_from_u64(0),
            };
            self.slots.resize(n, never);
        }
    }

    /// The private RNG of `node`, seeded now if this is the run's first
    /// draw from it.
    #[inline]
    pub fn node(&mut self, node: usize) -> &mut StdRng {
        let slot = &mut self.slots[node];
        if slot.run != self.key.run {
            slot.rng = StdRng::seed_from_u64(derive_seed(self.key.seed, node as u64));
            slot.run = self.key.run;
        }
        &mut slot.rng
    }

    /// Bytes of backing capacity.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
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

    /// The first four draws of node `v`'s stream, eagerly seeded.
    fn eager(seed: u64, v: usize) -> [u64; 4] {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, v as u64));
        std::array::from_fn(|_| rng.random())
    }

    #[test]
    fn streams_are_prefix_stable_under_growth() {
        // The node-add epoch-determinism regression: a pool over a grown
        // network must give every pre-existing node the exact stream it
        // had before the growth, because streams are keyed by node id
        // via derive_seed(seed, node) — never by pool size, and never by
        // the order in which a run first touches its nodes.
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut pool = NodeRngs::new(seed, 5);
            // Scrambled first touches, draws interleaved across nodes.
            let mut got = [const { Vec::new() }; 5];
            for _ in 0..4 {
                for v in [3usize, 0, 4, 1, 2] {
                    got[v].push(pool.node(v).random::<u64>());
                }
            }
            for (v, stream) in got.iter().enumerate() {
                assert_eq!(stream[..], eager(seed, v), "node {v}, seed {seed}");
            }
            // Rebind to a grown snapshot under the next run's seed: old
            // nodes (their slots hold spent streams) and new ones alike
            // restart from that seed, in yet another touch order.
            pool.rebind(seed + 1, 9);
            for v in [8usize, 2, 5, 0, 7, 4, 1, 6, 3] {
                let stream: [u64; 4] = std::array::from_fn(|_| pool.node(v).random());
                assert_eq!(stream, eager(seed + 1, v), "node {v} after growth");
            }
            // The same seed again replays, and shrinking forgets.
            pool.rebind(seed + 1, 2);
            let replay: [u64; 4] = std::array::from_fn(|_| pool.node(1).random());
            assert_eq!(replay, eager(seed + 1, 1));
            assert_eq!(pool.slots.len(), 2);
        }
    }

    #[test]
    fn run_stamp_wraps_without_reusing_a_stamp() {
        // Two runs before the stamp wraps and two after it: a wrap to
        // the "never seeded" stamp 0 would hand an untouched node
        // `seed_from_u64(0)`, and a restart at 1 without clearing would
        // hand node 3 its spent stream from the pool's first run.
        let mut pool = NodeRngs::new(1, 4);
        assert_eq!(pool.node(3).random::<u64>(), eager(1, 3)[0]);
        pool.key.run = u64::MAX - 2;
        let runs: [(u64, &[usize]); 4] =
            [(2, &[0, 1]), (3, &[1]), (4, &[1, 2, 3]), (5, &[0, 2, 3])];
        for (seed, touched) in runs {
            pool.rebind(seed, 4);
            for &v in touched {
                let stream: [u64; 4] = std::array::from_fn(|_| pool.node(v).random());
                assert_eq!(stream, eager(seed, v), "node {v}, run seed {seed}");
            }
        }
        assert_eq!(pool.key.run, 2, "stamping restarted at 1 after the wrap");
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
    }
}
