//! In-memory tracing for the traced run: spans around the harness's
//! calls into each layer, and an allocation counter.
//!
//! Spans are recorded from the harness's own files only — the library
//! is not instrumented — so a layer's *self* time is its span minus
//! the spans nested inside it (see the README, "Reading a trace").

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.session.single_walk`.
    pub name: &'static str,
    /// The op (request) this span belongs to; spans of one op share it.
    /// `0` is set-up, timed ops count from 1.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Times closures and, when enabled, keeps their spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Op id stamped on the spans recorded next.
    pub op: u32,
    /// `(allocation calls, bytes requested)` during the timed ops of a
    /// traced pass; zero when tracing is off.
    pub ops_allocs: (u64, u64),
}

impl Tracer {
    /// A tracer that only times (the untraced passes).
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A tracer that keeps every span.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            ops_allocs: (0, 0),
        }
    }

    /// Runs the timed op list `f` inside the `ops` span; a tracer that
    /// keeps spans also tallies the allocations made meanwhile (set-up
    /// is left out: on `sparse_tail` it allocates more than the ops).
    pub fn timed_ops<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let before = alloc_totals();
        count_allocs(self.enabled);
        let out = self.span("ops", f);
        count_allocs(false);
        let after = alloc_totals();
        self.ops_allocs = (after.0 - before.0, after.1 - before.1);
        out
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the elapsed seconds. `f` receives the tracer so calls can nest.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Per span name: how many, their total time, and their *self*
    /// time (total minus the time covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += total as f64 / 1e9;
            e.self_s += total.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// The spans and their self-time summary as JSON.
    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("op".into(), Value::UInt(u64::from(s.op))),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                    ),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let summary = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::UInt(t.count)),
                        ("total_s".into(), Value::Float(t.total_s)),
                        ("self_s".into(), Value::Float(t.self_s)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("self_times".into(), Value::Object(summary)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    /// Number of spans.
    pub count: u64,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their durations minus their children's.
    pub self_s: f64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus, during the timed ops of a traced pass
/// ([`Tracer::timed_ops`]), a tally of
/// allocation calls and requested bytes. The benchmark binary installs
/// it; the untraced passes run with counting off (one relaxed load per
/// allocation).
pub struct CountingAlloc;

fn tally(bytes: usize) {
    // Statistics only: nothing is published through these counters.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns the allocation tally on or off.
fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` tallied so far.
fn alloc_totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
