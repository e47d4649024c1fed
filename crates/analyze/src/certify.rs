//! The CONGEST-conformance certifier: one entry point that exercises
//! every production message type under a recording engine, audits the
//! result with all four analyzer passes, and packages the evidence into
//! a machine-readable [`Certificate`] (committed as `CERT_PR10.json`
//! and regenerated in CI).
//!
//! The census harness is the load-bearing piece: a fixed, seeded
//! mini-workload on small graphs that drives **all** production
//! [`drw_congest::Message`] impls — the tree primitives, the walk
//! protocols of every phase, the multiplex wrappers, the mixing
//! baseline's fixed-point mass and the lower-bound segment protocol —
//! with [`drw_congest::EngineConfig::record_wire`] on. The merged
//! census is then joined against the static pricing table in
//! full-coverage mode, so a production message type that the harness
//! fails to drive is itself a certification failure
//! (`wire-coverage`), not a silent gap.
//!
//! Every input is a compile-time constant and every run is seeded, so
//! the certificate is byte-stable: CI regenerates it and diffs against
//! the committed copy.

use crate::interleave::{self, InterleaveParams};
use crate::wire::{self, WireReport};
use crate::{run_static_passes, run_wire_audit};
use drw_congest::primitives::{
    AggOp, BfsTreeProtocol, BroadcastProtocol, ConvergecastProtocol, UpcastMsg, UpcastProtocol,
    VectorSumProtocol,
};
use drw_congest::{
    run_node_local, run_protocol, Ctx, EngineConfig, Envelope, Mux, Runner, WireCensus,
};
use drw_core::metropolis::MetropolisWalkProtocol;
use drw_core::naive::{NaiveWalkProtocol, NaiveWalkSpec};
use drw_core::{ShortWalksProtocol, StitchScheduler, StitchSetup, WalkState};
use drw_graph::{generators, NodeId};
use drw_lowerbound::path_verification::PathVerificationProtocol;
use drw_mixing::baseline::direct_diffusion_mixing_cfg;
use std::path::Path;

/// Schema tag of a certificate file.
pub const SCHEMA: &str = "drw-cert-v1";

/// Node count of the census harness's main graph (a 4×4 torus); the
/// largest `n` of any harness graph, so the one the law prices against.
pub const CENSUS_N: u64 = 16;

/// Seed of the census harness runs.
const SEED: u64 = 0xCE2715;

/// Sweep budgets of one certification.
#[derive(Debug, Clone)]
pub struct CertParams {
    /// Shard-claim schedules to sweep.
    pub claim_budget: u64,
    /// Within-shard item schedules to sweep.
    pub item_budget: u64,
    /// Scripted fault timings to sweep.
    pub timing_budget: u64,
}

impl Default for CertParams {
    fn default() -> Self {
        CertParams {
            claim_budget: 1024,
            item_budget: 1024,
            timing_budget: 256,
        }
    }
}

/// One priced field of a certified message type.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CertType {
    /// Short type name (census key and static impl target).
    pub type_name: String,
    /// Deliveries observed across the harness.
    pub messages: u64,
    /// Largest `size_words()` observed.
    pub max_words: u64,
    /// Per-field magnitude evidence.
    pub fields: Vec<CertField>,
}

/// Schedule-sweep evidence of one certification.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CertSchedules {
    /// Distinct shard-claim schedules swept (all bit-identical).
    pub claim_swept: u64,
    /// Full claim-schedule space `Π s_r!` (decimal string; saturates).
    pub claim_space: String,
    /// Whether the claim-order bug injection was caught (harness
    /// self-validation).
    pub claim_bug_detected: bool,
    /// Distinct within-shard item schedules swept (all bit-identical).
    pub item_swept: u64,
    /// Full item-schedule space `Π c!` (decimal string; saturates).
    pub item_space: String,
    /// Whether the item-order bug injection was caught.
    pub item_bug_detected: bool,
    /// Scripted fault timings swept (each backend-independent and
    /// ledger-conserving).
    pub timing_swept: u64,
    /// Distinct end states across the swept timings (≥ 2 proves the
    /// timing knob moves faults).
    pub timing_distinct_outcomes: u64,
    /// Whether the retransmit-ledger bug injection was caught.
    pub timing_bug_detected: bool,
}

/// The machine-readable CONGEST-conformance certificate.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Certificate {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Node count the wire-value law was priced against.
    pub n: u64,
    /// Law constant `C`.
    pub law_c: u64,
    /// The model's word width in bits.
    pub word_bits: u64,
    /// Production `impl Message` blocks the static pass audited.
    pub impls_audited: u64,
    /// Of those, how many the census harness measured (must equal
    /// `impls_audited` for a clean certificate).
    pub impls_measured: u64,
    /// Per-type wire-value evidence, sorted by type name.
    pub types: Vec<CertType>,
    /// Schedule-sweep evidence.
    pub schedules: CertSchedules,
    /// Findings from the static passes and the wire audit, as rendered
    /// strings. Empty on a conforming workspace.
    pub findings: Vec<String>,
}

/// A synthetic driver for the single-level [`Mux`] wrapper: every node
/// sends one lane-tagged upcast item to each neighbour. `Mux` has no
/// standalone production driver (the batched scheduler runs on
/// [`drw_congest::Mux2`]), but its `Message` impl is production code
/// and the certificate must measure it; the inner payload reuses
/// `UpcastMsg`, so this adds no new message type to the workspace.
struct LaneEcho {
    n: usize,
}

impl drw_congest::Protocol for LaneEcho {
    type Msg = Mux<UpcastMsg>;

    fn start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        for v in 0..self.n {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                ctx.send(
                    v,
                    u,
                    Mux::new((v % 5) as u32, UpcastMsg((v as u64, 3 * v as u64))),
                );
            }
        }
    }

    fn on_receive(
        &mut self,
        _node: NodeId,
        _inbox: &[Envelope<Self::Msg>],
        _ctx: &mut Ctx<'_, Self::Msg>,
    ) {
        // Receipt is the point: the deliveries were censused.
    }
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

    // Walk protocols on a shared store: ShortWalkMsg, NaiveMsg, MhMsg,
    // and a recorded wave for StitchMsg's regeneration arms (`Wave.prev`,
    // `Taken`, `Replay`).
    let mut state = WalkState::new(n);
    {
        let mut p = ShortWalksProtocol::new(&mut state, vec![2; n], 6, true);
        census.merge(
            &run_node_local(&g, &cfg, SEED + 5, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }
    {
        let mut p = NaiveWalkProtocol::new(
            vec![NaiveWalkSpec {
                source: 0,
                len: 12,
                start_pos: 0,
                record_start: true,
            }],
            Some(&mut state),
        );
        census.merge(
            &run_protocol(&g, &cfg, SEED + 8, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }
    {
        let mut runner = Runner::new(&g, cfg.clone(), SEED + 9);
        let mut sched = StitchScheduler::new(&StitchSetup {
            lambda: 6,
            randomize_len: true,
            aggregated_gmw: false,
            gmw_count: 4,
            record: true,
        });
        sched.add_walk(0, 60);
        let out = sched.run(&mut runner, &mut state).map_err(|e| err(&e))?;
        if out.stitches < 3 {
            return Err("census harness: the recorded wave stitched too little".into());
        }
        census.merge(&out.report.wire);
    }
    {
        let mut p = MetropolisWalkProtocol::new(vec![1.0; n], vec![(0, 10)]);
        census.merge(
            &run_protocol(&g, &cfg, SEED + 10, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }

    // The batched Phase-2 scheduler: StitchMsg under Mux2, plus the
    // sub-protocols it multiplexes.
    {
        let mut runner = Runner::new(&g, cfg.clone(), SEED + 11);
        let mut st = WalkState::new(n);
        let mut p1 = ShortWalksProtocol::new(&mut st, vec![4; n], 8, true);
        census.merge(&runner.run_local(&mut p1).map_err(|e| err(&e))?.wire);
        let setup = StitchSetup {
            lambda: 8,
            randomize_len: true,
            aggregated_gmw: true,
            gmw_count: 16,
            record: false,
        };
        let mut sched = StitchScheduler::new(&setup);
        sched.add_walk(0, 64);
        sched.add_walk(5, 64);
        let out = sched.run(&mut runner, &mut st).map_err(|e| err(&e))?;
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

    // The single-level Mux wrapper (synthetic driver, see LaneEcho).
    {
        let mut p = LaneEcho { n };
        census.merge(
            &run_protocol(&g, &cfg, SEED + 14, &mut p)
                .map_err(|e| err(&e))?
                .wire,
        );
    }

    Ok(census)
}

/// Runs the full certification: census + wire audit (full coverage) +
/// static passes + all three schedule sweeps with their bug-injection
/// self-validations. Returns the certificate even when findings exist —
/// the caller decides the exit code — but turns engine failures and
/// sweep divergences into `Err`.
///
/// # Errors
///
/// Engine failures, sweep divergences, or an I/O error walking `root`.
pub fn certify(root: &Path, params: &CertParams) -> Result<Certificate, String> {
    let census = run_census()?;
    let report = WireReport::new(CENSUS_N, census);
    let audit =
        run_wire_audit(root, &report, Path::new("<census>"), true).map_err(|e| e.to_string())?;
    let statics = run_static_passes(root).map_err(|e| e.to_string())?;

    let claim_p = InterleaveParams {
        budget: params.claim_budget,
        ..InterleaveParams::default()
    };
    let claim = interleave::exhaustive_check(&claim_p)?;
    let (_, claim_bug) = interleave::bug_injection_detects(&claim_p, 24)?;

    let item_p = InterleaveParams {
        budget: params.item_budget,
        msgs_per_shard: 4,
        ..InterleaveParams::default()
    };
    let item = interleave::item_exhaustive_check(&item_p)?;
    let (_, item_bug) = interleave::item_bug_injection_detects(&item_p, 24)?;

    let timing_p = InterleaveParams::default();
    let timing = interleave::fault_timing_sweep(&timing_p, params.timing_budget)?;
    let (_, timing_bug) = interleave::timing_bug_injection_detects(&timing_p, 24)?;

    let types = report
        .census
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
                    budget_bits: wire::field_budget_bits(
                        u64::from(f.frac_bits),
                        report.n,
                        report.c,
                    ),
                })
                .collect(),
        })
        .collect();

    let findings = statics
        .findings
        .iter()
        .chain(audit.findings.iter())
        .map(|f| f.to_string())
        .collect();

    Ok(Certificate {
        schema: SCHEMA.to_string(),
        n: report.n,
        law_c: report.c,
        word_bits: crate::words::WORD_BITS,
        impls_audited: statics.impls_audited as u64,
        impls_measured: audit.types_joined as u64,
        types,
        schedules: CertSchedules {
            claim_swept: claim.schedules_run,
            claim_space: space_string(claim.schedule_space),
            claim_bug_detected: claim_bug,
            item_swept: item.schedules_run,
            item_space: space_string(item.schedule_space),
            item_bug_detected: item_bug,
            timing_swept: timing.timings_run,
            timing_distinct_outcomes: timing.distinct_outcomes as u64,
            timing_bug_detected: timing_bug,
        },
        findings,
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
            "NaiveMsg",
            "MhMsg",
            "StitchMsg",
            "Mux",
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
                let budget =
                    wire::field_budget_bits(u64::from(f.frac_bits), CENSUS_N, wire::DEFAULT_LAW_C);
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
