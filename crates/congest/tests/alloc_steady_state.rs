//! Steady-state rounds allocate nothing, on either backend, over a
//! perfect or an ARQ-healed transport.
//!
//! Every buffer a round touches — the queue's run and leftovers, the
//! fault layer's parked and due messages, inboxes, the staging buffer,
//! and under the sharded backend the partition scratch and the
//! per-shard staging buffers — belongs to the run and is recycled, so
//! once a run has seen its heaviest round the allocator is out of the
//! loop. This file has its own counting `#[global_allocator]` and one
//! test function, so nothing else allocates in the process while it
//! counts.

use drw_congest::{
    run_node_local, Ctx, EngineConfig, Envelope, ExecutorKind, FaultPlan, Message, NodeCtx,
    NodeLocalProtocol,
};
use drw_graph::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (and reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc`'s contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with its
    // original layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every pointer handed out came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract for `ptr`,
    // `layout` and `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: arguments are forwarded unchanged; `ptr` came from
        // `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Clone, Debug)]
struct Ping(u64);
impl Message for Ping {}

const WARM_UP: u64 = 8;
const ROUNDS: u64 = 64;

/// Every node answers every message it gets, along the edge it came
/// in on: after `start` puts one message on every directed edge, each
/// round delivers exactly `2m` messages, the same number to each node,
/// and no handler allocates.
struct Echo {
    received: Vec<u64>,
    /// `ALLOCS` as the round hook of each round read it.
    allocs_at_round: Vec<u64>,
}

impl NodeLocalProtocol for Echo {
    type Msg = Ping;
    type Shared = ();
    type NodeState = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        for v in 0..ctx.graph().n() {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                ctx.send(v, u, Ping(v as u64));
            }
        }
    }

    fn on_round(&mut self, _ctx: &mut Ctx<'_, Ping>) {
        // Pushes into capacity reserved before the run.
        self.allocs_at_round.push(ALLOCS.load(Ordering::Relaxed));
    }

    fn parts(&mut self) -> (&(), &mut [u64]) {
        (&(), &mut self.received)
    }

    fn on_receive_local(
        _shared: &(),
        received: &mut u64,
        _node: usize,
        inbox: &[Envelope<Ping>],
        ctx: &mut NodeCtx<'_, Ping>,
    ) {
        for env in inbox {
            *received += 1;
            if ctx.round() < ROUNDS {
                ctx.send(env.from, Ping(env.msg.0 + 1));
            }
        }
    }
}

#[test]
fn rounds_after_warm_up_allocate_nothing_sequential_or_sharded_perfect_or_healed() {
    let g = generators::complete(48); // 2256 messages a round: 8 shards
    let sequential = EngineConfig::default();
    let sharded = EngineConfig::default().with_executor(ExecutorKind::Sharded);
    // 1.6 % of the deliveries dropped and retransmitted four rounds on:
    // every round parks some 36 messages, re-stages as many that came
    // due, and leaves the fresh sends they collide with queued.
    let healed = FaultPlan::drops(7, 16);
    for (name, cfg) in [
        ("sequential", sequential.clone()),
        ("sharded", sharded.clone()),
        ("sequential, healed drops", sequential.with_faults(healed)),
        ("sharded, healed drops", sharded.with_faults(healed)),
    ] {
        let faulty = cfg.faults.is_some();
        let mut p = Echo {
            received: vec![0; g.n()],
            // Retransmissions land after the last send: a few more hooks.
            allocs_at_round: Vec::with_capacity(2 * ROUNDS as usize),
        };
        let before_run = ALLOCS.load(Ordering::Relaxed);
        let report = run_node_local(&g, &cfg, 5, &mut p).unwrap();
        if faulty {
            // A message held up four rounds makes four bounces fewer.
            assert!(report.messages < ROUNDS * 2256, "{name}");
            assert!(report.faults.dropped > 30 * ROUNDS, "{:?}", report.faults);
            assert_eq!(report.faults.retransmitted, report.faults.dropped);
            assert!(
                report.rounds > ROUNDS,
                "{name}: retransmissions cost rounds"
            );
        } else {
            assert_eq!((report.rounds, report.messages), (ROUNDS, ROUNDS * 2256));
        }
        if let Some(balance) = &report.balance {
            assert!(balance.rounds_measured >= ROUNDS, "every round shards");
        }
        // Hook to hook is one full round: receive, stage, deliver.
        let at = &p.allocs_at_round;
        assert_eq!(at.len() as u64, report.rounds);
        let after_warm_up = at[ROUNDS as usize - 1] - at[WARM_UP as usize];
        assert_eq!(
            after_warm_up,
            0,
            "{name}: {after_warm_up} allocations in rounds {}..{ROUNDS}",
            WARM_UP + 1
        );
        assert!(at[0] > before_run, "{name}: the counter counts");
    }
}
