//! Where does sharding a round start to pay? The measurement behind
//! `MSGS_PER_SHARD` in `crates/congest/src/executor/sharded.rs`.
//!
//! A token storm — `T` tokens, each forwarded to a uniformly random
//! neighbour every round, which is Phase 1's token step — delivers
//! exactly `T` messages per round on a 4-regular graph with unbounded
//! edge capacity. `extra` adds that many RNG draws of handler work per
//! message: `0` is the cheapest handler the system runs, `32` stands in
//! for one that computes. The table prints µs per round for the
//! sequential backend and the sharded one at 1 and 2 workers, over
//! volumes on both sides of the shard threshold (`2 * MSGS_PER_SHARD` =
//! 512 delivered messages): below it the sharded rows *are* the inline
//! loop, at and above it they pay the partition, the hand-off and the
//! merge and, with two workers, split the handlers. `x1 − sequential` is
//! what sharding a round costs with no second thread; `x2 − sequential`
//! at `extra = 0`, where the handlers leave next to nothing to split, is
//! the hand-off cost `H`; a column's difference between `extra = 32` and
//! `extra = 0`, over `T`, is what 32 draws add to the handler cost `c` of
//! a message. Two workers break even at `T = 2H/c`. Best of `REPS`
//! alternated runs per cell, so a stall on a shared box can only hide,
//! never fake, a gain.
//!
//! Run with `cargo bench -p drw-bench --bench shard_break_even`. Prints
//! a table and asserts only bit-identity; DESIGN.md ("One round loop,
//! two receive phases") records the reading the constant was set from.

use drw_congest::{
    run_node_local, Ctx, EngineConfig, Envelope, Message, NodeCtx, NodeLocalProtocol,
};
use drw_graph::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

#[derive(Clone, Debug)]
struct Token;
impl Message for Token {}

/// What every handler reads: when to stop forwarding, and how many extra
/// RNG draws each message costs.
struct Storm {
    rounds: u64,
    extra: u32,
}

/// `tokens` tokens random-walking for `rounds` rounds; each node folds
/// what it saw into a digest.
struct TokenStorm {
    tokens: usize,
    storm: Storm,
    digests: Vec<u64>,
}

impl NodeLocalProtocol for TokenStorm {
    type Msg = Token;
    type Shared = Storm;
    type NodeState = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, Token>) {
        let n = ctx.graph().n();
        for t in 0..self.tokens {
            ctx.send_random_neighbor(t % n, Token);
        }
    }

    fn parts(&mut self) -> (&Storm, &mut [u64]) {
        (&self.storm, &mut self.digests)
    }

    fn on_receive_local(
        storm: &Storm,
        digest: &mut u64,
        _node: usize,
        inbox: &[Envelope<Token>],
        ctx: &mut NodeCtx<'_, Token>,
    ) {
        for _ in inbox {
            for _ in 0..storm.extra {
                *digest = digest.rotate_left(5) ^ ctx.rng().random::<u64>();
            }
            *digest = digest.wrapping_add(1);
            if ctx.round() < storm.rounds {
                ctx.send_random_neighbor(Token);
            }
        }
    }
}

const ROUNDS: u64 = 300;
const REPS: usize = 25;

fn main() {
    let g = generators::random_regular(1024, 4, &mut StdRng::seed_from_u64(0xBEEF));
    let unbounded = EngineConfig {
        edge_capacity: None,
        ..EngineConfig::default()
    };
    let backends = [
        ("sequential", unbounded.clone()),
        ("sharded x1", unbounded.clone().with_workers(1)),
        ("sharded x2", unbounded.clone().with_workers(2)),
    ];
    println!(
        "available_parallelism = {}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    println!(
        "{:>5} {:>10} | {:>13} {:>13} {:>13} | {:>8} {:>8}",
        "extra",
        "msgs/round",
        "sequential us",
        "sharded x1 us",
        "sharded x2 us",
        "x1/seq",
        "x2/seq"
    );
    for extra in [0u32, 32] {
        for tokens in [256usize, 512, 1024, 2048, 4096] {
            let mut best = [f64::INFINITY; 3];
            let mut reference = None;
            for _ in 0..REPS {
                for (cell, (name, cfg)) in best.iter_mut().zip(&backends) {
                    let mut p = TokenStorm {
                        tokens,
                        storm: Storm {
                            rounds: ROUNDS,
                            extra,
                        },
                        digests: vec![0; g.n()],
                    };
                    let t0 = Instant::now();
                    let report = run_node_local(&g, cfg, 7, &mut p).expect("token storm");
                    let us = t0.elapsed().as_secs_f64() * 1e6 / report.rounds as f64;
                    *cell = cell.min(us);
                    let outcome = (report, p.digests);
                    let want = reference.get_or_insert_with(|| outcome.clone());
                    assert_eq!(&outcome, want, "{name} diverged at {tokens} tokens");
                }
            }
            println!(
                "{:>5} {:>10} | {:>13.1} {:>13.1} {:>13.1} | {:>8.2} {:>8.2}",
                extra,
                tokens,
                best[0],
                best[1],
                best[2],
                best[1] / best[0],
                best[2] / best[0]
            );
        }
    }
}
