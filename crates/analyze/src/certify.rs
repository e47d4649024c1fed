//! The CONGEST-conformance certifier: one entry point that exercises
//! every production message type under a recording engine, audits the
//! result with the wire audit and both schedule sweeps, and packages
//! the evidence into a machine-readable [`Certificate`] (committed as
//! `CERT_PR10.json` and regenerated in CI).
//!
//! The census harness is the load-bearing piece: a fixed, seeded
//! mini-workload on small graphs that drives **all** production
//! [`drw_congest::Message`] impls — the tree primitives, the walk
//! protocols of every phase, the `Mux2` multiplex wrapper, the mixing
//! baseline's fixed-point mass and the lower-bound segment protocol —
//! with [`drw_congest::EngineConfig::record_wire`] on. The merged
//! census is then joined against the production `impl Message` sites,
//! which demands full coverage: a production message type that the harness
//! fails to drive is itself a certification failure
//! (`wire-coverage`), not a silent gap.
//!
//! Every input is a compile-time constant and every run is seeded, so
//! the certificate is byte-stable: CI regenerates it and diffs against
//! the committed copy.

use crate::interleave::{self, FaultSweepOutcome, InterleaveOutcome};
use crate::run_wire_audit;
use crate::wire;
use drw_congest::primitives::{
    AggOp, BfsTreeProtocol, BroadcastProtocol, ConvergecastProtocol, UpcastProtocol,
    VectorSumProtocol,
};
use drw_congest::{run_protocol, EngineConfig, Runner, WireCensus};
use drw_core::{ShortWalksProtocol, StitchScheduler, StitchSetup, StitchSpec, WalkState};
use drw_graph::generators;
use drw_lowerbound::path_verification::PathVerificationProtocol;
use drw_mixing::baseline::direct_diffusion_mixing_cfg;
use std::path::Path;

/// Schema tag of a certificate file.
pub const SCHEMA: &str = "drw-cert-v3";

/// Node count of the census harness's main graph (a 4×4 torus); the
/// largest `n` of any harness graph, so the one the law prices against.
pub const CENSUS_N: u64 = 16;

/// Bits per modelled word. The model word is `O(log n)` bits; every
/// full-word scalar counts exactly one word regardless of its Rust
/// width (a `u64` holding a `poly(n)` quantity is still one word).
const WORD_BITS: u64 = 32;

/// Seed of the census harness runs.
const SEED: u64 = 0xCE2715;

/// Sweep budgets of one certification.
#[derive(Debug, Clone)]
pub struct CertParams {
    /// Receive-order schedules to sweep.
    pub order_budget: u64,
    /// Fault schedules to sweep.
    pub fault_budget: u64,
}

impl Default for CertParams {
    fn default() -> Self {
        CertParams {
            order_budget: 1024,
            fault_budget: 256,
        }
    }
}

/// One priced field of a certified message type.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CertField {
    /// Field name (variant-qualified for enums).
    pub field: String,
    /// Largest magnitude observed on the wire.
    pub max_value: u64,
    /// Declared fixed-point fraction bits (exempt from the budget).
    pub frac_bits: u64,
    /// Bits the observed maximum needs.
    pub bits: u64,
    /// The law's budget: `frac_bits + C * ceil(log2 n)`.
    pub budget_bits: u64,
}

/// One certified message type.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CertType {
    /// Short type name (census key and impl target).
    pub type_name: String,
    /// Deliveries observed across the harness.
    pub messages: u64,
    /// Largest `size_words()` observed.
    pub max_words: u64,
    /// Per-field magnitude evidence.
    pub fields: Vec<CertField>,
}

/// Schedule-sweep evidence of one certification.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CertSchedules {
    /// Receive-order schedules swept (all bit-identical).
    pub order_swept: u64,
    /// Full receive-order space `Π k_r!` (decimal string; saturates).
    pub order_space: String,
    /// Rounds with at least two receivers.
    pub order_rounds: u64,
    /// Of those, rounds some swept schedule permuted.
    pub order_rounds_permuted: u64,
    /// Whether the merge-order bug injection was caught (harness
    /// self-validation).
    pub order_bug_detected: bool,
    /// Fault schedules swept (each faulting, identical in order and
    /// scripted, and ledger-conserving).
    pub fault_swept: u64,
    /// Distinct end states across the swept fault schedules (≥ 2
    /// proves the plans move faults).
    pub fault_distinct_outcomes: u64,
    /// Whether the merge-order bug injection was caught under faults.
    pub fault_bug_detected: bool,
}

/// The machine-readable CONGEST-conformance certificate.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Certificate {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Node count the wire-value law was priced against.
    pub n: u64,
    /// Law constant `C`.
    pub law_c: u64,
    /// The model's word width in bits.
    pub word_bits: u64,
    /// Production `impl Message` blocks found in the source.
    pub impls_audited: u64,
    /// Of those, how many the census harness measured (must equal
    /// `impls_audited` for a clean certificate).
    pub impls_measured: u64,
    /// Per-type wire-value evidence, sorted by type name.
    pub types: Vec<CertType>,
    /// Schedule-sweep evidence.
    pub schedules: CertSchedules,
    /// Findings from the wire audit, as rendered strings. Empty on a
    /// conforming workspace.
    pub findings: Vec<String>,
}

/// Runs the fixed census workload and returns the merged wire census.
/// Drives every production `Message` impl in the workspace; all inputs
/// are constants and all runs seeded, so the census is byte-stable.
///
/// # Errors
///
/// Any engine failure, rendered as a string.
pub fn run_census() -> Result<WireCensus, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let g = generators::torus2d(4, 4);
    let n = g.n();
    debug_assert_eq!(n as u64, CENSUS_N);
    let cfg = EngineConfig::default().with_wire_census();
    let mut census = WireCensus::default();

    // Tree primitives: BfsMsg, BroadcastMsg, ConvergecastMsg,
    // UpcastMsg, VecSumMsg.
    let mut bfs = BfsTreeProtocol::new(0);
    census.merge(
        &run_protocol(&g, &cfg, SEED, &mut bfs)
            .map_err(|e| err(&e))?
            .wire,
    );
    let tree = bfs.into_tree();

    let mut bc = BroadcastProtocol::new(tree.clone(), vec![3, 1, 4]);
    census.merge(
        &run_protocol(&g, &cfg, SEED + 1, &mut bc)
            .map_err(|e| err(&e))?
            .wire,
    );

    let degrees: Vec<u64> = (0..n).map(|v| g.degree(v) as u64).collect();
    let mut cc = ConvergecastProtocol::new(&tree, AggOp::Sum, degrees);
    census.merge(
        &run_protocol(&g, &cfg, SEED + 2, &mut cc)
            .map_err(|e| err(&e))?
            .wire,
    );

    let items: Vec<Vec<(u64, u64)>> = (0..n).map(|v| vec![(v as u64, (v * v) as u64)]).collect();
    let mut up = UpcastProtocol::new(tree.clone(), items);
    census.merge(
        &run_protocol(&g, &cfg, SEED + 3, &mut up)
            .map_err(|e| err(&e))?
            .wire,
    );

    let vectors: Vec<Vec<u64>> = (0..n).map(|v| vec![v as u64, 1]).collect();
    let mut vs = VectorSumProtocol::new(tree, vectors);
    census.merge(
        &run_protocol(&g, &cfg, SEED + 4, &mut vs)
            .map_err(|e| err(&e))?
            .wire,
    );

    // Walk protocols on a shared store: ShortWalkMsg, and a recorded
    // wave for StitchMsg's regeneration arm (`Replay`).
    let mut state = WalkState::new(n);
    {
        let mut p = ShortWalksProtocol::new(&mut state, vec![2; n], 6, true);
        census.merge(
            &run_protocol(&g, &cfg, SEED + 5, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }
    {
        let mut runner = Runner::new(&g, cfg.clone(), SEED + 9);
        let mut sched = StitchScheduler::new(&StitchSetup {
            lambda: 6,
            randomize_len: true,
            gmw_count: 4,
        });
        sched.add_spec(StitchSpec {
            record: true,
            ..StitchSpec::plain(0, 60)
        });
        let out = sched.run(&mut runner, &mut state).map_err(|e| err(&e))?;
        if out.stitches < 3 {
            return Err("census harness: the recorded wave stitched too little".into());
        }
        census.merge(&out.report.wire);
    }

    // The batched Phase-2 scheduler: StitchMsg under Mux2, plus the
    // sub-protocols it multiplexes; then one lane over an empty store,
    // whose drained connector runs `GET-MORE-WALKS` (`Gmw`, `Ride`,
    // `Stored`).
    {
        let mut runner = Runner::new(&g, cfg.clone(), SEED + 11);
        let mut st = WalkState::new(n);
        let mut p1 = ShortWalksProtocol::new(&mut st, vec![4; n], 8, true);
        census.merge(&runner.run(&mut p1).map_err(|e| err(&e))?.wire);
        let setup = StitchSetup {
            lambda: 8,
            randomize_len: true,
            gmw_count: 16,
        };
        let mut sched = StitchScheduler::new(&setup);
        sched.add_walk(0, 64);
        sched.add_walk(5, 64);
        let out = sched.run(&mut runner, &mut st).map_err(|e| err(&e))?;
        census.merge(&out.report.wire);
        let mut sched = StitchScheduler::new(&setup);
        sched.add_walk(3, 64);
        let mut empty = WalkState::new(n);
        let out = sched.run(&mut runner, &mut empty).map_err(|e| err(&e))?;
        if out.gmw_invocations == 0 {
            return Err("census harness: the empty store never replenished".into());
        }
        census.merge(&out.report.wire);
    }

    // The mixing baseline's fixed-point MassMsg (odd cycle, so the
    // diffusion actually converges).
    {
        let cg = generators::cycle(9);
        let (_, wire) = direct_diffusion_mixing_cfg(&cg, 0, 0.5, 64, SEED + 12, cfg.clone())
            .map_err(|e| err(&e))?;
        census.merge(&wire);
    }

    // The lower-bound segment protocol, on a cycle so positions 1..=5
    // sit on consecutive edges by construction.
    {
        let cg = generators::cycle(8);
        let mut positions: Vec<Option<u64>> = vec![None; cg.n()];
        for (v, p) in positions.iter_mut().take(5).enumerate() {
            *p = Some(v as u64 + 1);
        }
        let mut p = PathVerificationProtocol::new(positions, 5);
        census.merge(
            &run_protocol(&cg, &cfg, SEED + 13, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }

    Ok(census)
}

/// One certification: the certificate plus the sweep outcomes behind
/// its schedule evidence, for the coverage lines the CLI prints.
#[derive(Debug)]
pub struct Certification {
    /// The certificate.
    pub certificate: Certificate,
    /// The receive-order sweep.
    pub order: InterleaveOutcome,
    /// Schedules tried on the planted merge race.
    pub order_bug_tries: u64,
    /// The faulted sweep.
    pub fault: FaultSweepOutcome,
    /// Fault schedules tried on the planted merge race.
    pub fault_bug_tries: u64,
}

/// Runs the full certification: census + wire audit (full coverage) +
/// both schedule sweeps with their bug-injection self-validations.
/// Returns the certification even when findings exist or a planted bug
/// went undetected — the caller decides the exit code — but turns
/// engine failures and sweep divergences into `Err`.
///
/// # Errors
///
/// Engine failures, sweep divergences, or an I/O error walking `root`.
pub fn certify(root: &Path, params: &CertParams) -> Result<Certification, String> {
    let census = run_census()?;
    let audit = run_wire_audit(root, CENSUS_N, &census).map_err(|e| e.to_string())?;

    let order = interleave::order_sweep(params.order_budget)?;
    let (order_bug_tries, order_bug) = interleave::bug_injection_detects(24)?;

    let fault = interleave::fault_sweep(params.fault_budget)?;
    let (fault_bug_tries, fault_bug) = interleave::fault_bug_injection_detects(24)?;

    let types = census
        .types
        .iter()
        .map(|ty| CertType {
            type_name: ty.type_name.clone(),
            messages: ty.messages,
            max_words: ty.max_words as u64,
            fields: ty
                .fields
                .iter()
                .map(|f| CertField {
                    field: f.field.clone(),
                    max_value: f.max_value,
                    frac_bits: u64::from(f.frac_bits),
                    bits: wire::bits_needed(f.max_value),
                    budget_bits: wire::field_budget_bits(u64::from(f.frac_bits), CENSUS_N),
                })
                .collect(),
        })
        .collect();

    let findings = audit.findings.iter().map(|f| f.to_string()).collect();

    let certificate = Certificate {
        schema: SCHEMA.to_string(),
        n: CENSUS_N,
        law_c: wire::LAW_C,
        word_bits: WORD_BITS,
        impls_audited: audit.impls_found as u64,
        impls_measured: audit.types_joined as u64,
        types,
        schedules: CertSchedules {
            order_swept: order.schedules_run,
            order_space: space_string(order.schedule_space),
            order_rounds: order.rounds as u64,
            order_rounds_permuted: order.rounds_permuted as u64,
            order_bug_detected: order_bug,
            fault_swept: fault.schedules_run,
            fault_distinct_outcomes: fault.distinct_outcomes as u64,
            fault_bug_detected: fault_bug,
        },
        findings,
    };
    Ok(Certification {
        certificate,
        order,
        order_bug_tries,
        fault,
        fault_bug_tries,
    })
}

/// Renders a schedule-space cardinality, keeping the saturation sentinel
/// human-readable in the certificate.
fn space_string(space: u128) -> String {
    if space == u128::MAX {
        ">= 2^128".to_string()
    } else {
        space.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_covers_every_production_message_type() {
        let census = run_census().expect("harness runs");
        let names: Vec<&str> = census.types.iter().map(|t| t.type_name.as_str()).collect();
        for expected in [
            "BfsMsg",
            "BroadcastMsg",
            "ConvergecastMsg",
            "UpcastMsg",
            "VecSumMsg",
            "ShortWalkMsg",
            "StitchMsg",
            "Mux2",
            "MassMsg",
            "SegmentMsg",
        ] {
            assert!(
                names.contains(&expected),
                "census missed {expected}: {names:?}"
            );
        }
    }

    #[test]
    fn census_is_byte_stable() {
        let a = run_census().expect("first run");
        let b = run_census().expect("second run");
        assert_eq!(
            a, b,
            "census must be deterministic for a stable certificate"
        );
    }

    #[test]
    fn every_measured_field_fits_the_law() {
        let census = run_census().expect("harness runs");
        for ty in &census.types {
            for f in &ty.fields {
                let bits = wire::bits_needed(f.max_value);
                let budget = wire::field_budget_bits(u64::from(f.frac_bits), CENSUS_N);
                assert!(
                    bits <= budget,
                    "{}.{} used {bits} bits of a {budget}-bit budget (max {})",
                    ty.type_name,
                    f.field,
                    f.max_value
                );
            }
        }
    }
}
