//! Pass 3 — exhaustive interleaving checker (a miniature loom).
//!
//! [`drw_congest::run_scripted`] cuts a round's receive phase into
//! shards, runs them in a scripted order, each staging into its own
//! buffer, and merges the buffers in *shard* order. For a protocol whose
//! handlers are node-local, the order the shards run in never shows, so
//! every order is observationally the in-order run.
//!
//! This pass turns that contract into a bounded model check. It runs a
//! real protocol (Phase-1 short walks) on a small torus through
//! `run_scripted`, enumerating distinct shard-claim schedules and
//! asserting each run's [`RunReport`] and final walk-state digest are
//! identical to the in-order run's ([`run_protocol`]).
//!
//! ## Schedule enumeration
//!
//! Round `r` with `s_r` shards has `s_r!` claim orders, so a whole run
//! has `Π s_r!` schedules. Schedule `i < Π s_r!` decodes positionally:
//! at each sharded round take `perm = unrank(i mod s_r!)` and divide
//! `i` by `s_r!`. Distinct indices yield distinct schedules by
//! construction, so "the checker exhausted `k` schedules" is a real
//! coverage count, not a sample with collisions. The budget caps `i`;
//! on the default 4×4 torus the space is astronomically larger than
//! any budget, so every budgeted index runs.
//!
//! The checker also validates *itself*: with the scripted run's
//! `merge_in_claim_order` bug-injection knob it reintroduces the
//! classic staging-merge race and must observe a divergence — proof
//! that the harness can detect the failure class it guards against.

use drw_congest::{
    run_protocol, run_scripted, EngineConfig, FaultPlan, RunReport, ScriptedSchedule,
    ScriptedTiming,
};
use drw_core::{ShortWalksProtocol, WalkState};
use drw_graph::generators;

/// Parameters of one checker invocation.
#[derive(Debug, Clone)]
pub struct InterleaveParams {
    /// Torus side lengths (`rows * cols` nodes).
    pub rows: usize,
    /// Torus column count.
    pub cols: usize,
    /// Walks started per node.
    pub walks_per_node: usize,
    /// Short-walk length λ.
    pub lambda: u32,
    /// Run seed.
    pub seed: u64,
    /// Maximum number of distinct schedules to execute.
    pub budget: u64,
    /// Messages per shard, small so that small graphs still fan out
    /// into many shards per round.
    pub msgs_per_shard: u64,
}

impl Default for InterleaveParams {
    fn default() -> Self {
        InterleaveParams {
            rows: 4,
            cols: 4,
            walks_per_node: 2,
            lambda: 16,
            seed: 0xD5,
            budget: 1024,
            msgs_per_shard: 1,
        }
    }
}

/// What one checker invocation observed.
#[derive(Debug)]
pub struct InterleaveOutcome {
    /// Distinct schedules executed (including the identity schedule).
    pub schedules_run: u64,
    /// Size of the full schedule space `Π s_r!` (saturating).
    pub schedule_space: u128,
    /// Rounds that actually sharded (where a claim order existed).
    pub sharded_rounds: usize,
    /// Largest shard count of any round.
    pub max_shards: usize,
    /// Schedules whose report or walk-state digest diverged from the
    /// in-order reference. Zero on a node-local protocol.
    pub divergent: u64,
}

/// One run's observable result: the engine report plus a digest of the
/// final walk state (per-node, per-source stored-walk counts), so a
/// divergence in protocol outcome is caught even if the report fields
/// happen to collide.
#[derive(PartialEq)]
struct Observed {
    report: RunReport,
    digest: Vec<usize>,
}

/// Runs the short-walk workload under `run` and digests its end state.
fn observe(
    p: &InterleaveParams,
    run: impl FnOnce(&drw_graph::Graph, &mut ShortWalksProtocol<'_>) -> Result<RunReport, String>,
) -> Result<Observed, String> {
    let g = generators::torus2d(p.rows, p.cols);
    let mut state = WalkState::new(g.n());
    let report = {
        let mut proto =
            ShortWalksProtocol::new(&mut state, vec![p.walks_per_node; g.n()], p.lambda, false);
        run(&g, &mut proto)?
    };
    Ok(Observed {
        report,
        digest: digest(&state, g.n()),
    })
}

/// The default engine configuration, optionally under a fault plan.
fn engine_cfg(plan: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        faults: plan,
        ..EngineConfig::default()
    }
}

/// One in-order run: the reference.
fn run_in_order(p: &InterleaveParams, plan: Option<FaultPlan>) -> Result<Observed, String> {
    let cfg = engine_cfg(plan);
    observe(p, |g, proto| {
        run_protocol(g, &cfg, p.seed, proto).map_err(|e| e.to_string())
    })
}

fn claims(
    p: &InterleaveParams,
    merge_in_claim_order: bool,
    order: &mut dyn FnMut(u64, usize) -> Vec<usize>,
) -> Result<Observed, String> {
    claims_and_items(p, merge_in_claim_order, false, order, None)
}

fn claims_and_items<'a>(
    p: &InterleaveParams,
    merge_in_claim_order: bool,
    scramble_item_order: bool,
    order: &'a mut dyn FnMut(u64, usize) -> Vec<usize>,
    item_order: Option<&'a mut dyn FnMut(u64, usize, usize) -> Vec<usize>>,
) -> Result<Observed, String> {
    let schedule = ScriptedSchedule {
        msgs_per_shard: p.msgs_per_shard,
        merge_in_claim_order,
        scramble_item_order,
        order,
        item_order,
    };
    observe(p, |g, proto| {
        run_scripted(g, &EngineConfig::default(), p.seed, proto, schedule)
            .map_err(|e| e.to_string())
    })
}

/// Per-(node, source) stored-walk counts — the protocol's observable
/// outcome.
fn digest(state: &WalkState, n: usize) -> Vec<usize> {
    let mut d = Vec::with_capacity(n * n);
    for v in 0..n {
        for s in 0..n {
            d.push(state.stored_from(v, s));
        }
    }
    d
}

/// `s!` as a saturating u128.
fn factorial(s: usize) -> u128 {
    let mut f: u128 = 1;
    for k in 2..=s as u128 {
        f = f.saturating_mul(k);
    }
    f
}

/// The `k`-th permutation of `0..s` in the factorial number system.
fn unrank(mut k: u128, s: usize) -> Vec<usize> {
    let mut items: Vec<usize> = (0..s).collect();
    let mut perm = Vec::with_capacity(s);
    for pos in 0..s {
        let f = factorial(s - 1 - pos);
        let idx = if f == u128::MAX {
            0 // saturated radix: only tiny k reach here, prefix stays identity
        } else {
            (k / f) as usize
        };
        k %= f;
        perm.push(items.remove(idx.min(items.len() - 1)));
    }
    perm
}

/// Runs the exhaustive check. Errors describe a divergence or an
/// engine failure; `Ok` carries the coverage statistics (with
/// `divergent == 0`).
pub fn exhaustive_check(p: &InterleaveParams) -> Result<InterleaveOutcome, String> {
    let baseline = run_in_order(p, None)?;

    // Probe pass: identity schedule, recording each round's shard
    // count. Doubles as the scripted-vs-in-order conformance check.
    let mut shard_counts: Vec<usize> = Vec::new();
    let probe = claims(p, false, &mut |_round, s| {
        shard_counts.push(s);
        (0..s).collect()
    })?;
    if probe != baseline {
        return Err(format!(
            "scripted run (identity schedule) diverged from the in-order \
             reference: in-order report {:?} vs scripted {:?}",
            baseline.report, probe.report
        ));
    }

    let schedule_space = shard_counts
        .iter()
        .fold(1u128, |acc, &s| acc.saturating_mul(factorial(s)));
    let sharded_rounds = shard_counts.len();
    let max_shards = shard_counts.iter().copied().max().unwrap_or(0);

    let mut divergent = 0u64;
    let mut schedules_run = 1u64; // the identity probe
    let mut first_divergence: Option<String> = None;
    for i in 1..p.budget {
        if (i as u128) >= schedule_space {
            break; // space exhausted: every schedule has been run
        }
        let mut rem: u128 = i as u128;
        let outcome = claims(p, false, &mut |_round, s| {
            let f = factorial(s);
            let k = rem % f;
            rem /= f;
            unrank(k, s)
        })?;
        schedules_run += 1;
        if outcome != baseline {
            divergent += 1;
            first_divergence.get_or_insert_with(|| {
                format!(
                    "schedule #{i} diverged: report {:?} vs baseline {:?}",
                    outcome.report, baseline.report
                )
            });
        }
    }
    if let Some(msg) = first_divergence {
        return Err(format!(
            "{divergent} of {schedules_run} schedules diverged from the in-order \
             reference — first: {msg}"
        ));
    }
    Ok(InterleaveOutcome {
        schedules_run,
        schedule_space,
        sharded_rounds,
        max_shards,
        divergent,
    })
}

/// Self-validation: with the merge-order bug injected, some schedule
/// must produce a different result — otherwise the checker could not
/// detect the race class it exists for. Returns the number of
/// schedules tried and whether a divergence was observed.
pub fn bug_injection_detects(p: &InterleaveParams, tries: u64) -> Result<(u64, bool), String> {
    let baseline = run_in_order(p, None)?;
    let mut tried = 0u64;
    for i in 0..tries {
        // Walk the schedule space from the far end: reversed-ish
        // permutations maximally disturb the merge order.
        let mut rem: u128 = i as u128;
        let outcome = claims(p, true, &mut |_round, s| {
            let f = factorial(s);
            let k = rem % f;
            rem /= f;
            let mut perm = unrank(k, s);
            perm.reverse();
            perm
        })?;
        tried += 1;
        if outcome != baseline {
            return Ok((tried, true));
        }
    }
    Ok((tried, false))
}

/// What one item-level checker invocation observed.
///
/// The item-level schedule space sits *inside* the claim-level one:
/// with the shard-claim order pinned to identity, schedule `i` permutes
/// the order in which work items (receiving nodes) are processed within
/// each claimed shard. The merge contract says this order is also
/// unobservable: each item sends only from its own node, so no two
/// items in a shard share a directed edge, and the staging sort is a
/// stable per-edge sort — per-edge FIFO cannot depend on item order.
#[derive(Debug)]
pub struct ItemInterleaveOutcome {
    /// Distinct item-order schedules executed (including identity).
    pub schedules_run: u64,
    /// Size of the full schedule space `Π c!` over every (round, shard)
    /// item count `c` (saturating).
    pub schedule_space: u128,
    /// Shard visits whose item count was ≥ 2 (where a permutation
    /// actually existed).
    pub permutable_shards: usize,
    /// Largest item count of any shard visit.
    pub max_items: usize,
    /// Schedules whose report or digest diverged from the in-order
    /// reference. Zero on a node-local protocol.
    pub divergent: u64,
}

/// Runs the item-level exhaustive check: shard-claim order fixed to
/// identity, message-processing order within each shard swept through
/// distinct permutations decoded positionally from the schedule index
/// (factorial number system per shard visit — distinct index ⇒
/// distinct schedule). Every schedule must be bit-identical to the
/// in-order reference.
pub fn item_exhaustive_check(p: &InterleaveParams) -> Result<ItemInterleaveOutcome, String> {
    let baseline = run_in_order(p, None)?;

    // Probe pass: identity claim + item orders, recording each shard
    // visit's item count. Claim order is identity on every run, so the
    // sequence of (round, shard, item-count) visits is reproducible and
    // the positional decode below is well-defined.
    let mut item_counts: Vec<usize> = Vec::new();
    let probe = claims_and_items(
        p,
        false,
        false,
        &mut |_round, s| (0..s).collect(),
        Some(&mut |_round, _shard, c| {
            item_counts.push(c);
            (0..c).collect()
        }),
    )?;
    if probe != baseline {
        return Err(format!(
            "scripted run (identity item schedule) diverged from the \
             in-order reference: in-order report {:?} vs scripted {:?}",
            baseline.report, probe.report
        ));
    }

    let schedule_space = item_counts
        .iter()
        .fold(1u128, |acc, &c| acc.saturating_mul(factorial(c)));
    let permutable_shards = item_counts.iter().filter(|&&c| c >= 2).count();
    let max_items = item_counts.iter().copied().max().unwrap_or(0);

    let mut divergent = 0u64;
    let mut schedules_run = 1u64; // the identity probe
    let mut first_divergence: Option<String> = None;
    for i in 1..p.budget {
        if (i as u128) >= schedule_space {
            break; // space exhausted: every item schedule has been run
        }
        let mut rem: u128 = i as u128;
        let outcome = claims_and_items(
            p,
            false,
            false,
            &mut |_round, s| (0..s).collect(),
            Some(&mut |_round, _shard, c| {
                let f = factorial(c);
                let k = rem % f;
                rem /= f;
                unrank(k, c)
            }),
        )?;
        schedules_run += 1;
        if outcome != baseline {
            divergent += 1;
            first_divergence.get_or_insert_with(|| {
                format!(
                    "item schedule #{i} diverged: report {:?} vs baseline {:?}",
                    outcome.report, baseline.report
                )
            });
        }
    }
    if let Some(msg) = first_divergence {
        return Err(format!(
            "{divergent} of {schedules_run} item schedules diverged from the \
             in-order reference — first: {msg}"
        ));
    }
    Ok(ItemInterleaveOutcome {
        schedules_run,
        schedule_space,
        permutable_shards,
        max_items,
        divergent,
    })
}

/// Item-level self-validation: with the scripted run's
/// `scramble_item_order` bug knob on (an out-of-position item's staged
/// sends are reversed), some schedule must diverge — the divergence
/// needs an item that sends ≥ 2 messages over one edge, which the
/// short-walk workload produces whenever a node forwards two tokens to
/// the same neighbour. Returns (schedules tried, divergence seen).
pub fn item_bug_injection_detects(p: &InterleaveParams, tries: u64) -> Result<(u64, bool), String> {
    let baseline = run_in_order(p, None)?;
    let mut tried = 0u64;
    for i in 0..tries {
        // Reversed item permutations put every item of a ≥2-item shard
        // out of position, arming the scramble on all of them.
        let mut rem: u128 = i as u128;
        let outcome = claims_and_items(
            p,
            false,
            true,
            &mut |_round, s| (0..s).collect(),
            Some(&mut |_round, _shard, c| {
                let f = factorial(c);
                let k = rem % f;
                rem /= f;
                let mut perm = unrank(k, c);
                perm.reverse();
                perm
            }),
        )?;
        tried += 1;
        if outcome != baseline {
            return Ok((tried, true));
        }
    }
    Ok((tried, false))
}

/// What one fault-timing sweep observed.
///
/// Scripted fault timing ([`ScriptedTiming`]) permutes which of a
/// round's delivery attempts a fault plan's drop/delay budget lands on,
/// without changing the per-round fate multiset. Timing index 0 is the
/// identity (bit-identical to the unscripted plan); every index must
/// give the same result in order and scripted, and keep the ARQ ledger
/// conserved
/// (`dropped == retransmitted` once the run completes).
#[derive(Debug)]
pub struct FaultTimingOutcome {
    /// Distinct timing indices executed (including identity index 0).
    pub timings_run: u64,
    /// Distinct end-state digests across the swept timings — evidence
    /// the schedule knob actually moves faults (≥ 2 on a lossy plan).
    pub distinct_outcomes: usize,
    /// Timings where the scripted and in-order runs disagreed or the
    /// retransmit ledger failed conservation. Zero on a healthy engine.
    pub divergent: u64,
}

/// The lossy-but-healing fault plan the timing sweep runs under.
fn timing_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_drops(80).with_delays(50, 3)
}

/// Sweeps `count` scripted fault timings. Per timing, the retransmit
/// ledger must conserve (`dropped == retransmitted`) and the scripted
/// receive (identity shard order, `p.msgs_per_shard` sizing) must be
/// bit-identical to the in-order reference; index 0 must reproduce the
/// unscripted baseline exactly.
pub fn fault_timing_sweep(p: &InterleaveParams, count: u64) -> Result<FaultTimingOutcome, String> {
    let plan = timing_plan(p.seed ^ 0x5EED_FA17);
    let baseline = run_in_order(p, Some(plan))?;
    if baseline.report.faults.total() == 0 {
        return Err("fault plan injected nothing; the sweep would be vacuous".into());
    }

    let mut digests: Vec<Vec<usize>> = Vec::new();
    let mut timings_run = 0u64;
    for index in 0..count {
        let timed = plan.with_timing(ScriptedTiming::new(index));
        let seq = run_in_order(p, Some(timed))?;
        if index == 0 && seq != baseline {
            return Err(format!(
                "timing index 0 is not the identity: report {:?} vs baseline {:?}",
                seq.report, baseline.report
            ));
        }
        let f = &seq.report.faults;
        if f.dropped != f.retransmitted {
            return Err(format!(
                "timing #{index} broke ledger conservation: {} dropped vs {} retransmitted",
                f.dropped, f.retransmitted
            ));
        }
        let cfg = engine_cfg(Some(timed));
        let sharded = observe(p, |g, proto| {
            let identity = &mut |_round, s| (0..s).collect();
            let schedule = ScriptedSchedule::new(p.msgs_per_shard, identity);
            run_scripted(g, &cfg, p.seed, proto, schedule).map_err(|e| e.to_string())
        })?;
        if sharded != seq {
            return Err(format!(
                "timing #{index}: scripted receive diverged from the in-order \
                 reference: in-order report {:?} vs scripted {:?}",
                seq.report, sharded.report
            ));
        }
        if !digests.contains(&seq.digest) {
            digests.push(seq.digest);
        }
        timings_run += 1;
    }
    Ok(FaultTimingOutcome {
        timings_run,
        distinct_outcomes: digests.len(),
        divergent: 0,
    })
}

/// Fault-timing self-validation: with `ledger_misses_moved` injected
/// (retransmissions of *moved* drops silently uncounted), some timing
/// must break the `dropped == retransmitted` conservation check.
/// Returns (timings tried, bug detected).
pub fn timing_bug_injection_detects(
    p: &InterleaveParams,
    tries: u64,
) -> Result<(u64, bool), String> {
    let plan = timing_plan(p.seed ^ 0x5EED_FA17);
    let mut tried = 0u64;
    for index in 1..=tries {
        let timed = plan.with_timing(ScriptedTiming {
            index,
            ledger_misses_moved: true,
        });
        let got = run_in_order(p, Some(timed))?;
        tried += 1;
        if got.report.faults.retransmitted < got.report.faults.dropped {
            return Ok((tried, true));
        }
    }
    Ok((tried, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_is_a_permutation_enumeration() {
        let mut seen: Vec<Vec<usize>> = Vec::new();
        for k in 0..24u128 {
            let p = unrank(k, 4);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3]);
            assert!(!seen.contains(&p), "rank {k} repeated {p:?}");
            seen.push(p);
        }
    }

    #[test]
    fn identity_is_rank_zero() {
        assert_eq!(unrank(0, 5), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn factorial_saturates() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(4), 24);
        assert_eq!(factorial(64), u128::MAX); // saturated
    }

    #[test]
    fn small_exhaustive_check_passes() {
        let p = InterleaveParams {
            budget: 40,
            ..InterleaveParams::default()
        };
        let out = exhaustive_check(&p).expect("no divergence");
        assert_eq!(out.schedules_run, 40);
        assert_eq!(out.divergent, 0);
        assert!(out.max_shards >= 2, "graph too small to shard: {out:?}");
    }

    #[test]
    fn small_item_exhaustive_check_passes() {
        let p = InterleaveParams {
            budget: 40,
            // Several messages per shard so shards hold ≥ 2 items and
            // item permutations exist.
            msgs_per_shard: 4,
            ..InterleaveParams::default()
        };
        let out = item_exhaustive_check(&p).expect("no divergence");
        assert_eq!(out.schedules_run, 40);
        assert_eq!(out.divergent, 0);
        assert!(
            out.max_items >= 2 && out.permutable_shards > 0,
            "workload never produced a multi-item shard: {out:?}"
        );
    }

    #[test]
    fn item_bug_injection_is_detected() {
        let p = InterleaveParams {
            msgs_per_shard: 4,
            ..InterleaveParams::default()
        };
        let (tried, detected) = item_bug_injection_detects(&p, 24).expect("runs complete");
        assert!(
            detected,
            "scramble_item_order went unnoticed in {tried} schedules"
        );
    }

    #[test]
    fn small_fault_timing_sweep_passes() {
        let p = InterleaveParams::default();
        let out = fault_timing_sweep(&p, 12).expect("no divergence");
        assert_eq!(out.timings_run, 12);
        assert_eq!(out.divergent, 0);
        assert!(
            out.distinct_outcomes >= 2,
            "timing knob never moved a fault: {out:?}"
        );
    }

    #[test]
    fn timing_bug_injection_is_detected() {
        let p = InterleaveParams::default();
        let (tried, detected) = timing_bug_injection_detects(&p, 16).expect("runs complete");
        assert!(
            detected,
            "ledger_misses_moved went unnoticed in {tried} timings"
        );
    }
}
