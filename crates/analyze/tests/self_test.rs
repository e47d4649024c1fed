//! Self-tests for the analyzer: the wire audit must flag a field that
//! busts the `O(log n)` budget and pass the real workspace at full
//! coverage, the interleaving checker must both pass on the healthy
//! executor and detect the injected merge-order race, and the binary
//! must disclose budget truncation and demand a certificate path.

use drw_analyze::certify::run_census;
use drw_analyze::interleave::{
    bug_injection_detects, fault_bug_injection_detects, fault_sweep, order_sweep,
};
use drw_analyze::lexer::lex;
use drw_analyze::run_wire_audit;
use drw_analyze::wire::{audit_wire, message_impls, ImplSite};
use drw_congest::WireCensus;
use std::path::{Path, PathBuf};

/// Falsifiability of the wire-value auditor: `ProbeMsg` lists one
/// word, but the recorded census shows its field carrying `2^40` on an
/// n = 16 run — far past the `2·⌈log2 n⌉ = 8` bit budget. The joined
/// audit must produce exactly that one finding, anchored at the impl.
#[test]
fn wire_audit_flags_a_poly_busting_probe() {
    let src = "/// A probe counter: one word, dynamically out of law.\n\
               pub struct ProbeMsg {\n    pub level: u32,\n}\n\
               impl Message for ProbeMsg {}\n";
    let file = PathBuf::from("wire_probe.rs");
    let impls: Vec<ImplSite> = message_impls(&lex(src))
        .into_iter()
        .map(|(target, line)| ImplSite {
            target,
            file: file.clone(),
            line,
        })
        .collect();
    let mut census = WireCensus::default();
    census.record("ProbeMsg", 1).field("level", 1 << 40);
    let audit = audit_wire(16, &census, &impls);
    assert_eq!(audit.findings.len(), 1, "{:#?}", audit.findings);
    let f = &audit.findings[0];
    assert_eq!(
        (f.rule.as_str(), f.file.as_path(), f.line),
        ("wire-values", file.as_path(), 5)
    );
    assert!(
        f.message.contains("`ProbeMsg.level` carried max value"),
        "{}",
        f.message
    );
}

/// The workspace-level wire bar: a full certification census (every
/// production protocol driven on a 16-node run) joined against the
/// production impls yields zero findings (no lossy listing, no field
/// over the law) and leaves no impl unmeasured.
#[test]
fn wire_audit_workspace_is_clean_at_full_coverage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let census = run_census().expect("census run");
    let audit = run_wire_audit(&root, 16, &census).expect("scan workspace");
    assert!(
        audit.findings.is_empty(),
        "wire findings: {:#?}",
        audit.findings
    );
    assert!(
        audit.unmeasured.is_empty(),
        "unmeasured impls: {:?}",
        audit.unmeasured
    );
    assert_eq!(
        (audit.impls_found, audit.types_joined),
        (11, 11),
        "every production Message impl found and measured"
    );
}

#[test]
fn interleave_schedules_are_bit_identical() {
    let out = order_sweep(48).expect("healthy executor");
    assert_eq!(out.schedules_run, 48);
    assert_eq!(out.divergent, 0);
    assert!(out.max_receivers >= 2, "the torus must script: {out:?}");
}

/// The sweep reaches past the first round: on the default torus every
/// round with at least two receivers is permuted by some schedule (a
/// positional decode over the space `Π k_r!` stays in node order after
/// round 1, whose `k_1!` alone exceeds any budget).
#[test]
fn receive_order_sweep_permutes_every_round_with_two_receivers() {
    let out = order_sweep(16).expect("healthy executor");
    assert!(out.rounds >= 20, "{out:?}");
    assert_eq!(out.rounds_permuted, out.rounds, "{out:?}");
}

#[test]
fn interleave_checker_detects_injected_merge_race() {
    let (tried, detected) = bug_injection_detects(24).expect("runs complete");
    assert!(
        detected,
        "merge-in-run-order bug not detected in {tried} schedules — the checker \
         cannot see the race class it exists for"
    );
}

/// Under faults the receive order still never shows on the healthy
/// engine…
#[test]
fn fault_schedules_are_bit_identical() {
    let t = fault_sweep(16).expect("healthy engine");
    assert_eq!(t.schedules_run, 16);
    assert!(
        t.distinct_outcomes >= 2,
        "the fault plans must actually move faults: {t:?}"
    );
}

/// …and the planted merge race still shows through them.
#[test]
fn fault_checker_detects_injected_merge_race() {
    let (tried, detected) = fault_bug_injection_detects(24).expect("runs complete");
    assert!(
        detected,
        "merge-in-run-order bug under faults not detected in {tried} schedules"
    );
}

/// Budget truncation is loud: a deliberately tiny budget must make the
/// binary report partial coverage of the schedule space instead of
/// silently truncating the sweep.
#[test]
fn cli_reports_budget_truncation() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let cert = Path::new(env!("CARGO_TARGET_TMPDIR")).join("truncated_cert.json");
    let out = std::process::Command::new(bin)
        .args([
            "--interleave-budget",
            "8",
            "--fault-budget",
            "4",
            "--cert-out",
        ])
        .arg(&cert)
        .output()
        .expect("run drw-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("8 receive-order schedules"), "{stdout}");
    assert!(stdout.contains("4 fault schedules swept"), "{stdout}");
    assert!(
        stdout.contains("budget-capped, partial coverage"),
        "the budgeted sweep must disclose truncation: {stdout}"
    );
    assert_eq!(stdout.matches("planted").count(), 2, "{stdout}");
    assert!(!stdout.contains("NOT detected"), "{stdout}");
}

/// The retired within-shard item axis is gone from the CLI.
#[test]
fn cli_rejects_the_retired_item_axis() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let out = std::process::Command::new(bin)
        .args(["--item-budget", "8"])
        .output()
        .expect("run drw-analyze");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option `--item-budget`"),
        "{stderr}"
    );
}

/// The certificate path is required, so a reduced-budget run cannot
/// overwrite the committed certificate by default.
#[test]
fn cli_requires_a_certificate_path() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let out = std::process::Command::new(bin)
        .args(["--interleave-budget", "8"])
        .output()
        .expect("run drw-analyze");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cert-out <path> is required"), "{stderr}");
}
