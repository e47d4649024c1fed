//! The sharded backend's threads belong to a run: spawned at most once,
//! by the first round that shards, and gone when the run returns —
//! normally or by a panic in a handler, whichever thread ran it.
//!
//! Thread counts are read from `/proc/self/status`, so this file has one
//! test function — the harness starts and retires a thread per test —
//! and every scenario in it runs under a watchdog: a hand-off that loses
//! a wake-up shows as a timeout, not as a hung test binary.

#![cfg(target_os = "linux")]

use drw_congest::{
    Ctx, EngineConfig, Envelope, Message, NodeCtx, NodeLocalProtocol, RunReport, Runner,
};
use drw_graph::generators;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::{self, ThreadId};
use std::time::Duration;

/// Runs `scenario` on a thread of its own — the executor's calling
/// thread — and fails if it has not come back within a minute.
fn with_watchdog<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let calling_thread = thread::spawn(move || tx.send(scenario()));
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("watchdog: the run deadlocked, or its calling thread died");
    calling_thread
        .join()
        .expect("already sent its outcome")
        .ok();
    outcome
}

/// Threads of this process, as the kernel counts them.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let count = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    count.trim().parse().expect("a thread count")
}

/// Waits for the process thread count to come back down to `baseline`:
/// a thread scope returns when its threads' closures have, a moment
/// before the kernel has reaped them.
fn assert_threads_back_to(baseline: usize) {
    for _ in 0..5000 {
        if process_threads() <= baseline {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(process_threads(), baseline, "helpers outlived their run");
}

#[derive(Clone, Debug)]
struct Ping;
impl Message for Ping {}

/// What every `Echo` handler reads: when to stop, and where to panic.
struct Plan {
    rounds: u64,
    caller: ThreadId,
    /// `Some(true)`: panic in a shard a helper claimed; `Some(false)`:
    /// in one the calling thread claimed.
    panic_on_helper: Option<bool>,
    sprung: AtomicBool,
}

/// Every node answers every message along the edge it came in on, for
/// `rounds` rounds: on `complete(48)` each round delivers 2256 messages
/// and cuts into 8 shards.
struct Echo {
    plan: Plan,
    received: Vec<u64>,
}

impl Echo {
    /// An echo whose calling thread is the current one.
    fn new(n: usize, rounds: u64, panic_on_helper: Option<bool>) -> Self {
        Echo {
            plan: Plan {
                rounds,
                caller: thread::current().id(),
                panic_on_helper,
                sprung: AtomicBool::new(false),
            },
            received: vec![0; n],
        }
    }
}

impl NodeLocalProtocol for Echo {
    type Msg = Ping;
    type Shared = Plan;
    type NodeState = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        for v in 0..ctx.graph().n() {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                ctx.send(v, u, Ping);
            }
        }
    }

    fn parts(&mut self) -> (&Plan, &mut [u64]) {
        (&self.plan, &mut self.received)
    }

    fn on_receive_local(
        plan: &Plan,
        received: &mut u64,
        _node: usize,
        inbox: &[Envelope<Ping>],
        ctx: &mut NodeCtx<'_, Ping>,
    ) {
        if let Some(panic_on_helper) = plan.panic_on_helper {
            let on_helper = thread::current().id() != plan.caller;
            if on_helper == panic_on_helper {
                plan.sprung.store(true, Ordering::Release);
                panic!("trap sprung, on a helper: {on_helper}");
            }
            // Hold this shard until the other side has claimed one, so
            // the trap springs however the claims race.
            while !plan.sprung.load(Ordering::Acquire) {
                thread::sleep(Duration::from_micros(50));
            }
        }
        *received += inbox.len() as u64;
        if ctx.round() < plan.rounds {
            for env in inbox {
                ctx.send(env.from, Ping);
            }
        }
    }
}

fn back_to_back_runs_leave_no_threads_behind() {
    with_watchdog(|| {
        let g = generators::complete(48);
        let mut runner = Runner::new(&g, EngineConfig::default().with_workers(3), 17);
        let baseline = process_threads();
        for run in 0..1000 {
            let mut p = Echo::new(g.n(), 3, None);
            let report: RunReport = runner.run_local(&mut p).unwrap();
            let balance = report.balance.unwrap();
            assert_eq!(
                (report.rounds, balance.rounds_measured),
                (3, 3),
                "run {run}"
            );
            assert_eq!(balance.helpers_spawned, 2, "run {run}");
        }
        assert_threads_back_to(baseline);
    });
}

/// A handler panic in a shard claimed by a helper (`on_helper`) or by
/// the calling thread must come out of the run on the calling thread,
/// with the helpers gone.
fn handler_panic_surfaces_on_the_caller(on_helper: bool) {
    for workers in [2, 4] {
        let message = with_watchdog(move || {
            let g = generators::complete(48);
            let cfg = EngineConfig::default().with_workers(workers);
            let baseline = process_threads();
            let mut p = Echo::new(g.n(), 3, Some(on_helper));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                drw_congest::run_node_local(&g, &cfg, 23, &mut p)
            }));
            assert_threads_back_to(baseline);
            let payload = outcome.expect_err("the run must panic");
            payload
                .downcast_ref::<String>()
                .expect("a formatted panic message")
                .clone()
        });
        assert_eq!(message, format!("trap sprung, on a helper: {on_helper}"));
    }
}

#[test]
fn sharded_runs_own_their_threads() {
    back_to_back_runs_leave_no_threads_behind();
    handler_panic_surfaces_on_the_caller(true);
    handler_panic_surfaces_on_the_caller(false);
}
