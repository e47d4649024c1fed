//! A wave costs what it touches: the allocations of a short served walk
//! do not grow with the graph.
//!
//! A 32-step walk visits at most 33 nodes whatever `n` is, so the host
//! work of serving it — engine set-up, wave scratch, result assembly —
//! has no business scaling with `n` either. Wall time would be a noisy
//! witness; allocation counts and bytes are exact. The same counter
//! holds the steady state of two real protocols — the naive walk and
//! Phase 1 — to less than one allocation per extra round. This file has
//! its own counting `#[global_allocator]` and one test function, so
//! nothing else allocates in the process while it counts.

use drw_congest::{run_node_local, EngineConfig};
use drw_core::{
    naive_walk, ShortWalksProtocol, SingleWalkConfig, StitchSpec, WalkSession, WalkState,
};
use drw_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations since process start (a reallocation goes through
/// `alloc`, by `GlobalAlloc`'s default), and the bytes they asked for.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counters are relaxed atomics
// with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc`'s contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with its
    // original layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every pointer handed out came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` that `op` performed.
fn counted(op: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    op();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

const LEN: u64 = 32;

/// The cost of one warm `single_walk(l = 32)` and of one warm wave of
/// eight pure 32-step tails on a random 4-regular graph of `n` nodes.
fn warm_costs(n: usize) -> [(u64, u64); 2] {
    let g = generators::random_regular(n, 4, &mut StdRng::seed_from_u64(3));
    let mut session = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 7).expect("session");
    let cohort: Vec<StitchSpec> = (0..8)
        .map(|i| StitchSpec {
            req: 0,
            source: (i * 977) % n,
            len: LEN,
            pos_offset: 0,
            record: false,
            naive: false,
        })
        .collect();
    // `lambda = l` keeps every walk below `2 * lambda`: a pure tail, and
    // no store is ever built. One of each first, so what is counted is
    // the served regime and not the runner's first use of a buffer.
    session.single_walk(1, LEN).expect("warm-up walk");
    session
        .run_wave(LEN as u32, LEN, &cohort)
        .expect("warm-up wave");
    let walk = counted(|| {
        let out = session.single_walk(n / 2, LEN).expect("walk");
        assert_eq!((out.rounds, out.stitches), (LEN, 0));
    });
    let wave = counted(|| {
        let out = session.run_wave(LEN as u32, LEN, &cohort).expect("wave");
        assert_eq!((out.walks.len(), out.stitches), (8, 0));
    });
    assert_eq!(session.state().total_stored(), 0, "no store for tails");
    [walk, wave]
}

/// Allocations per extra round of a naive walk (l = 1 000 vs 11 000)
/// and per extra unit of λ of Phase 1 (λ = 64 vs 192, every node
/// forwarding every round) on a random 4-regular graph of 256 nodes.
/// Queue, inboxes and pre-reserved forward logs reach their high-water
/// marks early and recycle, so the longer run allocates no more.
fn steady_state_allocs_per_round() -> [f64; 2] {
    let g = generators::random_regular(256, 4, &mut StdRng::seed_from_u64(0xBEEF));
    let naive =
        [1_000, 11_000].map(|len| counted(|| assert!(naive_walk(&g, 0, len, 42).is_ok())).0);
    let phase1 = [64, 192].map(|lambda| {
        counted(|| {
            let mut state = WalkState::new(g.n());
            let mut p = ShortWalksProtocol::new(&mut state, vec![1; g.n()], lambda, false);
            run_node_local(&g, &EngineConfig::default(), 7, &mut p).expect("phase 1");
        })
        .0
    });
    [
        naive[1].saturating_sub(naive[0]) as f64 / 10_000.0,
        phase1[1].saturating_sub(phase1[0]) as f64 / 128.0,
    ]
}

#[test]
fn allocations_grow_with_neither_the_graph_nor_the_run_length() {
    let small = warm_costs(1 << 13);
    let large = warm_costs(1 << 16);
    eprintln!("(allocations, bytes) of [walk, k = 8 wave]: {small:?} at 2^13, {large:?} at 2^16");
    for (what, (s, l)) in ["single_walk", "k = 8 wave"]
        .into_iter()
        .zip(small.into_iter().zip(large))
    {
        // A walk of 32 steps reaches at most 33 nodes; each costs a
        // handful of small allocations the first time it gets mail (an
        // inbox, and where a walk lands, its wave scratch). How many of
        // the 33 are distinct, and new to the runner, varies a little
        // from walk to walk — `n` does not enter.
        let per_walk = if what == "single_walk" { 1 } else { 8 };
        assert!(
            s.0.abs_diff(l.0) <= 24 * per_walk && l.0 <= 160 * per_walk,
            "{what}: {} allocations at n = 2^13, {} at n = 2^16",
            s.0,
            l.0
        );
        assert!(
            l.1 <= 2 * s.1 + 4096 && l.1 <= 48 * 1024 * per_walk,
            "{what}: {} bytes at n = 2^13, {} at n = 2^16",
            s.1,
            l.1
        );
    }
    // Steady state: a per-round allocation (the flat queue's stage sort
    // used to make one) reads 1.0 or more here.
    let [naive, phase1] = steady_state_allocs_per_round();
    eprintln!("allocations per extra round: naive walk {naive:.4}, Phase 1 {phase1:.4}");
    assert!(naive < 1.0, "naive walk: {naive:.4} allocs/round");
    assert!(phase1 < 1.0, "Phase 1: {phase1:.4} allocs/round");
}
