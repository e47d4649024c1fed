//! The sharded backend's threads: a run owns them, rounds borrow them.
//!
//! A [`Pool`] lives as long as one run. The first round that shards
//! spawns `workers − 1` **helper** threads (scoped to the run, so they
//! are joined before the run returns); between rounds they wait on the
//! ticket word — a short spin, then yields, then `park`. The thread that
//! called the executor is **worker 0**: it opens a round, claims tickets
//! off the same word as the helpers, and only then waits for whatever
//! shards helpers still hold. A helper that wakes late therefore costs
//! nothing but the share it did not take.
//!
//! # The hand-off protocol
//!
//! One round's work is a [`RoundJob`] on the caller's stack. Three
//! words in the pool lend it out:
//!
//! * `tickets` = `epoch << 32 | shards << 16 | claimed`. The caller
//!   *opens* round `epoch` by storing `(epoch, shards, 0)` with
//!   `Release`, after writing `job` and zeroing `done`. A worker claims
//!   a ticket by a compare-exchange that bumps `claimed` while the word
//!   still carries the epoch it is working on and `claimed < shards`
//!   (`Acquire`: it sees `job`, and everything the job points at). The
//!   epoch tag is what makes a late helper harmless: once every ticket
//!   of a round is claimed, or the next round is open, its
//!   compare-exchange cannot succeed.
//! * `job` — the lifetime-erased address of the open round's
//!   [`RoundJob`]. Only a ticket holder may dereference it.
//! * `done` — completed tickets. A worker bumps it (`Release`) after its
//!   last touch of the job; whoever completes the last one unparks the
//!   caller. The caller leaves the round only when it reads `done ==
//!   shards` (`Acquire`), so the job and every `&mut` carve in it
//!   outlive all their users, and the shards' writes are visible.
//!
//! Who may touch what, when: the caller alone writes `job` and opens
//! rounds, and only while no ticket is outstanding; a worker touches
//! the job only between a successful claim and its `done` increment;
//! per-node state is reachable only through the shard a ticket yields
//! (the job's `Mutex` hands each shard to exactly one claimant).
//!
//! Tickets are anonymous: a holder runs whichever shard is next off the
//! job's carver, not the one its ticket number names. Every ticket buys
//! exactly one shard, which is all the completion count needs.
//!
//! Waiting never busy-loops without bound: both sides back off from
//! `spin_loop` to `yield_now` to `park`, so on a single CPU the thread
//! that holds the work always gets to run.

use super::sharded::RoundJob;
use crate::node_local::NodeLocalProtocol;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};

/// Busy-wait iterations before a waiter starts yielding its CPU.
const SPINS: u32 = 64;
/// `yield_now` calls before a waiter parks. Dense rounds follow each
/// other within ~100 µs (deliver + stage of the round in between), and
/// a yield costs well under a microsecond when nothing else is
/// runnable, so helpers stay warm across a dense phase and park in a
/// sparse one.
const YIELDS: u32 = 512;

/// Escalating wait: spin, then yield, then park. Whoever makes the
/// awaited condition true unparks the waiter, and callers re-check the
/// condition after every step, so a stale park token is only a wasted
/// iteration.
#[derive(Default)]
struct Backoff(u32);

impl Backoff {
    fn snooze(&mut self) {
        if self.0 < SPINS {
            std::hint::spin_loop();
        } else if self.0 < SPINS + YIELDS {
            thread::yield_now();
        } else {
            thread::park();
        }
        self.0 = self.0.saturating_add(1);
    }
}

fn pack(epoch: u32, shards: usize) -> u64 {
    debug_assert!(shards <= usize::from(u16::MAX));
    u64::from(epoch) << 32 | (shards as u64) << 16
}

fn epoch_of(word: u64) -> u32 {
    (word >> 32) as u32
}

fn shards_of(word: u64) -> usize {
    (word >> 16) as usize & 0xffff
}

fn claimed_of(word: u64) -> usize {
    word as usize & 0xffff
}

/// The worker crew of one sharded run (see the module docs).
pub(super) struct Pool<P> {
    /// Worker count, the calling thread included.
    workers: usize,
    /// The thread that opens rounds (worker 0).
    caller: Thread,
    /// The helpers, spawned by the first sharded round.
    helpers: OnceLock<Vec<Thread>>,
    tickets: AtomicU64,
    job: AtomicPtr<()>,
    done: AtomicUsize,
    /// First panic payload caught in a shard this round.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
    /// Ties `job`'s erased pointee type to this pool's protocol.
    _job: PhantomData<fn(P)>,
}

impl<P: NodeLocalProtocol> Pool<P> {
    /// A pool for `workers ≥ 1` workers whose worker 0 is the current
    /// thread. Spawns nothing.
    pub(super) fn new(workers: usize) -> Self {
        Pool {
            workers,
            caller: thread::current(),
            helpers: OnceLock::new(),
            tickets: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            _job: PhantomData,
        }
    }

    /// Helper threads this pool has spawned: 0 until a round shards,
    /// `workers − 1` from then on (fewer only if the OS refused one).
    pub(super) fn helpers_spawned(&self) -> usize {
        self.helpers.get().map_or(0, Vec::len)
    }

    /// Runs all `shards` shards of `job` — on this thread and on as many
    /// helpers as turn up — and returns once every one is complete. The
    /// first call spawns the helpers through `spawn_helper`, which must
    /// start a thread running [`Pool::helper_loop`] on this pool, or
    /// return `None` if the OS will not give it one: the run then makes
    /// do with the helpers it has, and the caller alone is enough.
    ///
    /// # Panics
    ///
    /// Re-raises, on this thread, a panic from any shard — whichever
    /// thread ran it — after the round has drained.
    pub(super) fn run_round(
        &self,
        job: &RoundJob<'_, P>,
        shards: usize,
        spawn_helper: &dyn Fn() -> Option<Thread>,
    ) {
        fn assert_sync<T: Sync>(_: &T) {}
        assert_sync(job); // `work` shares `&job` across threads

        let helpers = self
            .helpers
            .get_or_init(|| (1..self.workers).map_while(|_| spawn_helper()).collect());
        let epoch = epoch_of(self.tickets.load(Ordering::Relaxed)).wrapping_add(1);
        self.done.store(0, Ordering::Relaxed);
        self.job
            .store(std::ptr::from_ref(job).cast_mut().cast(), Ordering::Relaxed);
        self.tickets.store(pack(epoch, shards), Ordering::Release);
        // Unparking a thread that is not parked is one atomic swap.
        for helper in helpers.iter().take(shards - 1) {
            helper.unpark();
        }

        self.work(epoch);
        let mut backoff = Backoff::default();
        while self.done.load(Ordering::Acquire) < shards {
            backoff.snooze();
        }
        let caught = self.panic.lock().expect("never held across a panic").take();
        if let Some(payload) = caught {
            resume_unwind(payload);
        }
    }

    /// Body of a helper thread: work on every round it sees opened,
    /// until [`Pool::shutdown`].
    pub(super) fn helper_loop(&self) {
        let mut seen = 0;
        let mut backoff = Backoff::default();
        while !self.shutdown.load(Ordering::Acquire) {
            let epoch = epoch_of(self.tickets.load(Ordering::Relaxed));
            if epoch == seen {
                backoff.snooze();
                continue;
            }
            seen = epoch;
            self.work(epoch);
            backoff = Backoff::default();
        }
    }

    /// Tells the helpers to exit; the run's thread scope then joins
    /// them.
    pub(super) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for helper in self.helpers.get().into_iter().flatten() {
            helper.unpark();
        }
    }

    /// Claims tickets of round `epoch` until none is left, running one
    /// shard per ticket. The single place a thread reaches the
    /// caller's round-scoped borrows through the erased `job` pointer.
    #[allow(unsafe_code)]
    fn work(&self, epoch: u32) {
        loop {
            let mut word = self.tickets.load(Ordering::Relaxed);
            loop {
                if epoch_of(word) != epoch || claimed_of(word) == shards_of(word) {
                    return;
                }
                match self.tickets.compare_exchange_weak(
                    word,
                    word + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => word = now,
                }
            }
            let job = self.job.load(Ordering::Relaxed).cast::<RoundJob<'_, P>>();
            // This thread holds an unfinished ticket of round `epoch`.
            // (1) Live and initialised: `run_round` stored the address
            // of its `&RoundJob<'_, P>` argument before the `Release`
            // store that opened `epoch`, which the `Acquire` claim
            // above read (directly or through the release sequence of
            // earlier claims); it rewrites `job` only when opening a
            // later round, and returns — ending that borrow — only
            // after `done` has counted every ticket of `epoch`, ours
            // included, which happens below, after our last use of
            // `job`. (2) Type: `job` is only ever stored from a
            // `&RoundJob<'_, P>` of this pool's `P`; the lifetime is
            // shortened to this iteration. (3) Aliasing: only `&`
            // access is made, and `RoundJob<'_, P>: Sync` (checked in
            // `run_round`); the `&mut` carves inside it sit behind its
            // `Mutex`, which hands each shard to exactly one claimant,
            // and are disjoint by construction in safe code
            // (`split_at_mut` over the sorted, deduplicated `active`).
            //
            // SAFETY: a held ticket makes the pointee live (1), of this
            // type (2) and shared-access only (3), as argued above.
            let job = unsafe { &*job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.run_next())) {
                self.panic
                    .lock()
                    .expect("never held across a panic")
                    .get_or_insert(payload);
            }
            if self.done.fetch_add(1, Ordering::Release) + 1 == shards_of(word) {
                self.caller.unpark();
            }
        }
    }
}

/// Calls [`Pool::shutdown`] when dropped — on return, error and unwind
/// alike, so the run's thread scope can always join.
pub(super) struct ShutdownOnDrop<'a, P: NodeLocalProtocol>(pub(super) &'a Pool<P>);

impl<P: NodeLocalProtocol> Drop for ShutdownOnDrop<'_, P> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}
