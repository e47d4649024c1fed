//! Virtual-time arrival traces: the deterministic substitute for a
//! wall clock.
//!
//! A live service faces requests arriving *over time*; reproducing a
//! run therefore needs time itself to be part of the input. An
//! [`ArrivalTrace`] is that input: a list of `(at, tenant, request)`
//! events where `at` is a **virtual timestamp in CONGEST rounds** — the
//! service's clock advances exactly by the rounds its engine consumes
//! (plus idle fast-forwards to the next arrival), so a given
//! `(trace, seed)` pair replays bit-identically. No wall
//! clock, no threads, no ambient entropy: the clippy bans of
//! `crates/clippy.toml` apply to this module like any other protocol code.
//!
//! [`MixedTraceSpec`] synthesizes the mixed multi-tenant workloads the
//! experiments and tests use (walks + `MANY-RANDOM-WALKS` + spanning
//! trees + mixing probes + churn deltas) from a seed, via the same
//! SplitMix64 stream derivation as the engine RNGs.

use crate::request::{MixingRequest, Request};
use drw_congest::derive_seed;
use drw_graph::{NodeId, TopologyDelta};

/// A tenant identity: small, dense ids assigned by the caller.
pub type TenantId = u32;

/// One arrival: at virtual time `at`, tenant `tenant` submits
/// `request`.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual timestamp, in CONGEST rounds.
    pub at: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The submitted request.
    pub request: Request,
}

/// A seeded, explicit arrival trace (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ArrivalTrace {
    events: Vec<TraceEvent>,
}

impl ArrivalTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ArrivalTrace::default()
    }

    /// Appends an arrival (builder style). Events are served in
    /// timestamp order; pushes must be non-decreasing in `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous event.
    pub fn push(mut self, at: u64, tenant: TenantId, request: Request) -> Self {
        assert!(
            self.events.last().is_none_or(|e| e.at <= at),
            "trace events must be pushed in timestamp order"
        );
        self.events.push(TraceEvent {
            at,
            tenant,
            request,
        });
        self
    }

    /// The events, in timestamp order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Synthesizes a mixed multi-tenant trace from `spec` and `seed`
    /// (deterministic; see [`MixedTraceSpec`]).
    pub fn synthesize(spec: &MixedTraceSpec, seed: u64) -> Self {
        let mut rng = TraceRng { seed, ctr: 0 };
        let mut events = Vec::with_capacity(spec.events);
        let mut at = 0u64;
        // Churn pairs toggle between "extra edge present" and absent,
        // so every generated delta is valid against the base graph.
        let mut pair_active = vec![false; spec.churn_pairs.len()];
        for i in 0..spec.events {
            if i > 0 {
                // Gaps are uniform in [0, 2 * mean_gap], mean `mean_gap`.
                at += rng.below(2 * spec.mean_gap + 1);
            }
            let tenant = rng.below(u64::from(spec.tenants.max(1))) as TenantId;
            let roll = rng.below(100);
            let request = if roll < spec.mutate_pct && !spec.churn_pairs.is_empty() {
                let p = rng.below(spec.churn_pairs.len() as u64) as usize;
                let (u, v) = spec.churn_pairs[p];
                let delta = if pair_active[p] {
                    TopologyDelta::new().remove_edge(u, v)
                } else {
                    TopologyDelta::new().add_edge(u, v)
                };
                pair_active[p] = !pair_active[p];
                Request::Mutate(delta)
            } else if roll < spec.mutate_pct + spec.tree_pct {
                Request::spanning_tree(rng.below(spec.n as u64) as NodeId)
            } else if roll < spec.mutate_pct + spec.tree_pct + spec.mix_pct {
                Request::MixingTime(MixingRequest::probe_at(
                    rng.below(spec.n as u64) as NodeId,
                    spec.probe_len,
                ))
            } else if roll < spec.mutate_pct + spec.tree_pct + spec.mix_pct + spec.many_pct {
                let k = 2 + rng.below(spec.many_k_max.saturating_sub(1).max(1));
                let sources = (0..k).map(|_| rng.below(spec.n as u64) as NodeId).collect();
                Request::many_walks(sources, rng.walk_len(spec))
            } else {
                Request::walk(rng.below(spec.n as u64) as NodeId, rng.walk_len(spec))
            };
            events.push(TraceEvent {
                at,
                tenant,
                request,
            });
        }
        ArrivalTrace { events }
    }
}

/// Parameters of [`ArrivalTrace::synthesize`]: event count, tenant
/// count, arrival cadence, and the workload mix in percent (the
/// remainder after `mutate + tree + mix + many` is plain walks).
#[derive(Debug, Clone)]
pub struct MixedTraceSpec {
    /// Node count of the target graph (sources are sampled below it).
    pub n: usize,
    /// Number of tenants (ids `0..tenants`).
    pub tenants: u32,
    /// Number of arrivals.
    pub events: usize,
    /// Mean virtual-time gap between consecutive arrivals, in rounds.
    pub mean_gap: u64,
    /// Walk lengths are uniform in `[walk_len_min, walk_len_max]`.
    pub walk_len_min: u64,
    /// Upper walk-length bound (inclusive).
    pub walk_len_max: u64,
    /// Percent of events that are `MANY-RANDOM-WALKS`.
    pub many_pct: u64,
    /// Largest `MANY-RANDOM-WALKS` cohort.
    pub many_k_max: u64,
    /// Percent of events that are spanning-tree requests.
    pub tree_pct: u64,
    /// Percent of events that are single mixing probes.
    pub mix_pct: u64,
    /// Probe length of generated mixing probes.
    pub probe_len: u64,
    /// Percent of events that are churn deltas (requires
    /// `churn_pairs`).
    pub mutate_pct: u64,
    /// Node pairs that must *not* be edges of the base graph: deltas
    /// toggle an extra edge on each pair, so every delta is valid and
    /// removal never disconnects.
    pub churn_pairs: Vec<(NodeId, NodeId)>,
}

impl MixedTraceSpec {
    /// A balanced mixed workload over an `n`-node graph: mostly walks,
    /// some cohorts, occasional trees / probes / churn.
    pub fn balanced(n: usize, tenants: u32, events: usize) -> Self {
        MixedTraceSpec {
            n,
            tenants,
            events,
            mean_gap: 64,
            walk_len_min: 64,
            walk_len_max: 512,
            many_pct: 20,
            many_k_max: 4,
            tree_pct: 8,
            mix_pct: 8,
            probe_len: 64,
            mutate_pct: 6,
            churn_pairs: Vec::new(),
        }
    }
}

/// A counter-mode SplitMix64 stream: draw `i` is
/// `derive_seed(seed, i)` — the same derivation the engine RNG pools
/// use, so traces stay reproducible under any call pattern.
struct TraceRng {
    seed: u64,
    ctr: u64,
}

impl TraceRng {
    fn next(&mut self) -> u64 {
        self.ctr += 1;
        derive_seed(self.seed, self.ctr)
    }

    /// Uniform in `[0, bound)` (`bound >= 1`); bias is negligible for
    /// the small bounds traces use.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn walk_len(&mut self, spec: &MixedTraceSpec) -> u64 {
        let (lo, hi) = (spec.walk_len_min, spec.walk_len_max.max(spec.walk_len_min));
        lo + self.below(hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_traces_are_deterministic_and_ordered() {
        let spec = MixedTraceSpec {
            mutate_pct: 10,
            churn_pairs: vec![(0, 5), (2, 7)],
            ..MixedTraceSpec::balanced(16, 3, 40)
        };
        let a = ArrivalTrace::synthesize(&spec, 9);
        let b = ArrivalTrace::synthesize(&spec, 9);
        assert_eq!(a.len(), 40);
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.request, y.request);
        }
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.events().iter().all(|e| e.tenant < 3));
        let c = ArrivalTrace::synthesize(&spec, 10);
        assert!(
            a.events()
                .iter()
                .zip(c.events())
                .any(|(x, y)| x.request != y.request || x.at != y.at),
            "different seeds must differ"
        );
    }

    #[test]
    fn churn_deltas_toggle_so_removal_follows_addition() {
        let spec = MixedTraceSpec {
            mutate_pct: 100,
            churn_pairs: vec![(0, 9)],
            ..MixedTraceSpec::balanced(16, 1, 6)
        };
        let t = ArrivalTrace::synthesize(&spec, 1);
        // One pair, all-mutate: strict add/remove alternation.
        for (i, e) in t.events().iter().enumerate() {
            match &e.request {
                Request::Mutate(d) => {
                    let adds = matches!(d.ops()[0], drw_graph::DeltaOp::AddEdge(..));
                    assert_eq!(adds, i % 2 == 0, "event {i} breaks alternation");
                }
                other => panic!("expected all-mutate trace, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_push_panics() {
        let _ = ArrivalTrace::new()
            .push(5, 0, Request::walk(0, 8))
            .push(3, 0, Request::walk(0, 8));
    }
}
