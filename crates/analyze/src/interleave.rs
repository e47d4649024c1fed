//! The interleaving checker (a miniature loom).
//!
//! [`drw_congest::run_scripted`] runs each round's receiving nodes in a
//! scripted permutation, each node staging into its own buffer, and
//! appends the buffers in ascending node order. For a protocol whose
//! handlers are node-local, the order the nodes run in never shows, so
//! every order is observationally the in-order run.
//!
//! This pass turns that contract into a bounded model check. It runs a
//! real protocol (Phase-1 short walks) on a small torus through
//! `run_scripted`, sweeping receive-order schedules and asserting each
//! run's [`RunReport`] and final walk-state digest are identical to the
//! in-order run's ([`run_protocol`]).
//!
//! ## Schedule decode
//!
//! Schedule `i` draws round `r`'s order from a shuffle seeded by
//! `derive_seed(i, r)` ([`receive_order`]); schedule 0 is the identity.
//! Every round with at least two receivers is thus permuted
//! independently by every schedule, and the sweep reports how many of
//! those rounds some schedule actually permuted. The space, `Π k_r!`
//! over the rounds' receiver counts `k_r`, is reported for scale only:
//! on the 4×4 torus it dwarfs any budget.
//!
//! A second sweep runs the same check under faults: schedule `i` adds
//! its own seeded lossy, healing [`FaultPlan`] to its receive order, so
//! drops, delays and retransmissions land on different deliveries in
//! every schedule.
//!
//! The checker also validates *itself*: with the scripted run's
//! `merge_in_run_order` bug-injection knob it reintroduces the classic
//! staging-merge race and must observe a divergence, with and without
//! faults — proof that the harness can detect the failure class it
//! guards against.

use drw_congest::{
    derive_seed, receive_order, run_protocol, run_scripted, EngineConfig, FaultPlan, RunReport,
    ScriptedSchedule,
};
use drw_core::{ShortWalksProtocol, WalkState};
use drw_graph::generators;

/// Torus side lengths of the checked workload (`ROWS * COLS` nodes).
pub const ROWS: usize = 4;
/// Torus column count.
pub const COLS: usize = 4;
/// Walks started per node.
const WALKS_PER_NODE: usize = 2;
/// Short-walk length λ.
const LAMBDA: u32 = 16;
/// Run seed.
const SEED: u64 = 0xD5;

/// What one checker invocation observed.
#[derive(Debug)]
pub struct InterleaveOutcome {
    /// Schedules executed (including the identity schedule).
    pub schedules_run: u64,
    /// Size of the full schedule space `Π k_r!` (saturating).
    pub schedule_space: u128,
    /// Rounds with at least two receivers (where an order exists).
    pub rounds: usize,
    /// Of those, rounds that some executed schedule permuted.
    pub rounds_permuted: usize,
    /// Largest receiver count of any round.
    pub max_receivers: usize,
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
    run: impl FnOnce(&drw_graph::Graph, &mut ShortWalksProtocol<'_>) -> Result<RunReport, String>,
) -> Result<Observed, String> {
    let g = generators::torus2d(ROWS, COLS);
    let mut state = WalkState::new(g.n());
    let report = {
        let mut proto =
            ShortWalksProtocol::new(&mut state, vec![WALKS_PER_NODE; g.n()], LAMBDA, false);
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
fn run_in_order(plan: Option<FaultPlan>) -> Result<Observed, String> {
    let cfg = engine_cfg(plan);
    observe(|g, proto| run_protocol(g, &cfg, SEED, proto).map_err(|e| e.to_string()))
}

/// One scripted run under `cfg`, receive orders from `order`.
fn scripted(
    cfg: &EngineConfig,
    merge_in_run_order: bool,
    order: &mut dyn FnMut(u64, usize) -> Vec<usize>,
) -> Result<Observed, String> {
    let schedule = ScriptedSchedule {
        merge_in_run_order,
        order,
    };
    observe(|g, proto| run_scripted(g, cfg, SEED, proto, schedule).map_err(|e| e.to_string()))
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
    (2..=s as u128).fold(1, u128::saturating_mul)
}

/// Runs the receive-order sweep over `budget` schedules. Errors
/// describe a divergence (with how many schedules diverged) or an
/// engine failure; `Ok` carries the coverage statistics.
pub fn order_sweep(budget: u64) -> Result<InterleaveOutcome, String> {
    let baseline = run_in_order(None)?;
    let cfg = EngineConfig::default();

    // Per scripted round (receivers ≥ 2): its receiver count, and
    // whether some schedule permuted it. Runs are deterministic, so
    // every schedule of a healthy engine scripts the same rounds.
    let mut rounds: Vec<(usize, bool)> = Vec::new();
    let mut divergent = 0u64;
    let mut first_divergence: Option<String> = None;
    let schedules_run = budget.max(1); // the identity always runs
    for i in 0..schedules_run {
        let mut k = 0;
        let outcome = scripted(&cfg, false, &mut |round, len| {
            let perm = receive_order(i, round, len);
            if k == rounds.len() {
                rounds.push((len, false));
            }
            rounds[k].1 |= perm.iter().enumerate().any(|(pos, &j)| pos != j);
            k += 1;
            perm
        })?;
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
        schedule_space: rounds
            .iter()
            .fold(1, |acc, &(len, _)| acc.saturating_mul(factorial(len))),
        rounds: rounds.len(),
        rounds_permuted: rounds.iter().filter(|r| r.1).count(),
        max_receivers: rounds.iter().map(|r| r.0).max().unwrap_or(0),
    })
}

/// Self-validation: with the merge-order bug injected, some schedule
/// must produce a different result — otherwise the checker could not
/// detect the race class it exists for. Returns the number of
/// schedules tried and whether a divergence was observed.
pub fn bug_injection_detects(tries: u64) -> Result<(u64, bool), String> {
    merge_race_detects(tries, |_| None)
}

/// The same self-validation under faults: schedule `i` runs under the
/// faulted sweep's plan `i`, so the race must show through drops,
/// delays and retransmissions too.
pub fn fault_bug_injection_detects(tries: u64) -> Result<(u64, bool), String> {
    merge_race_detects(tries, |i| Some(fault_plan(i)))
}

/// Runs the planted merge race under schedules `1..=tries`, schedule
/// `i` under `plan(i)`, until one diverges from its in-order run.
fn merge_race_detects(
    tries: u64,
    plan: impl Fn(u64) -> Option<FaultPlan>,
) -> Result<(u64, bool), String> {
    for i in 1..=tries {
        let baseline = run_in_order(plan(i))?;
        let order = &mut |round, len| receive_order(i, round, len);
        if scripted(&engine_cfg(plan(i)), true, order)? != baseline {
            return Ok((i, true));
        }
    }
    Ok((tries, false))
}

/// What one faulted sweep observed.
///
/// Schedule `i` runs under its own seeded lossy, healing plan and
/// receive order ([`receive_order`]). Each must fault something, give
/// the same result in order and scripted, and deliver exactly the
/// messages of the fault-free run: healing loses and duplicates none.
#[derive(Debug)]
pub struct FaultSweepOutcome {
    /// Schedules executed.
    pub schedules_run: u64,
    /// Distinct end-state digests across the schedules — evidence the
    /// plans move faults (≥ 2 on any budget above one).
    pub distinct_outcomes: usize,
}

/// The lossy-but-healing fault plan of fault schedule `i`.
fn fault_plan(i: u64) -> FaultPlan {
    FaultPlan::new(derive_seed(SEED ^ 0x5EED_FA17, i))
        .with_drops(80)
        .with_delays(50, 3)
}

/// Sweeps `count` fault schedules. Errors describe a schedule that
/// faulted nothing, delivered other than the fault-free run's messages
/// or diverged between the in-order and scripted receive.
pub fn fault_sweep(count: u64) -> Result<FaultSweepOutcome, String> {
    // Phase 1 sends one message per token step, and every length is
    // drawn at launch, before any fault: a healed run delivers as many.
    let clean = run_in_order(None)?.report.messages;
    let mut digests: Vec<Vec<usize>> = Vec::new();
    for i in 0..count {
        let plan = fault_plan(i);
        let seq = run_in_order(Some(plan))?;
        let f = &seq.report.faults;
        if f.total() == 0 {
            return Err(format!(
                "fault schedule #{i} injected nothing; the check would be vacuous"
            ));
        }
        if seq.report.messages != clean {
            return Err(format!(
                "fault schedule #{i} delivered {} messages where the fault-free run \
                 delivers {clean}: healing lost or duplicated some",
                seq.report.messages
            ));
        }
        let order = &mut |round, len| receive_order(i, round, len);
        let got = scripted(&engine_cfg(Some(plan)), false, order)?;
        if got != seq {
            return Err(format!(
                "fault schedule #{i}: scripted receive diverged from the in-order \
                 reference: in-order report {:?} vs scripted {:?}",
                seq.report, got.report
            ));
        }
        if !digests.contains(&seq.digest) {
            digests.push(seq.digest);
        }
    }
    Ok(FaultSweepOutcome {
        schedules_run: count,
        distinct_outcomes: digests.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorial_saturates() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(4), 24);
        assert_eq!(factorial(64), u128::MAX); // saturated
    }

    #[test]
    fn small_order_sweep_passes() {
        let out = order_sweep(40).expect("no divergence");
        assert_eq!(out.schedules_run, 40);
        assert!(out.max_receivers >= 2, "graph too small to script: {out:?}");
    }

    #[test]
    fn small_fault_sweep_passes() {
        let out = fault_sweep(12).expect("no divergence");
        assert_eq!(out.schedules_run, 12);
        assert!(
            out.distinct_outcomes >= 2,
            "the fault plans never moved a fault: {out:?}"
        );
    }

    #[test]
    fn fault_bug_injection_is_detected() {
        let (tried, detected) = fault_bug_injection_detects(16).expect("runs complete");
        assert!(
            detected,
            "the merge race under faults went unnoticed in {tried} schedules"
        );
    }
}
