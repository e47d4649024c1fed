//! Self-tests for the analyzer: fixture trees with known defects must
//! produce exactly the expected findings, the real workspace must be
//! clean at zero allowlist entries, and the interleaving checker must
//! both pass on the healthy executor and detect the injected
//! merge-order race.

use drw_analyze::certify::run_census;
use drw_analyze::interleave::{
    bug_injection_detects, fault_timing_sweep, order_sweep, timing_bug_injection_detects,
    InterleaveParams,
};
use drw_analyze::wire::WireReport;
use drw_analyze::{run_static_passes, run_wire_audit, StaticReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn by_rule(report: &StaticReport) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for f in &report.findings {
        *m.entry(f.rule.clone()).or_insert(0) += 1;
    }
    m
}

#[test]
fn bad_fixture_every_defect_is_caught() {
    let report = run_static_passes(&fixture("bad_ws")).expect("scan fixture");
    let rules = by_rule(&report);
    assert_eq!(rules.get("hash-collections"), Some(&1));
    assert_eq!(rules.get("wall-clock"), Some(&2), "use + call site");
    assert_eq!(rules.get("unseeded-rng"), Some(&1));
    assert_eq!(rules.get("safety-comment"), Some(&1));
    assert_eq!(report.findings.len(), 5, "{:#?}", report.findings);
    assert_eq!(report.allows_used, 0);
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.to_string().contains("ProbeMsg")),
        "only the joined wire audit flags the probe"
    );
}

#[test]
fn good_fixture_is_clean_with_one_allow() {
    let report = run_static_passes(&fixture("good_ws")).expect("scan fixture");
    assert!(
        report.findings.is_empty(),
        "clean fixture flagged: {:#?}",
        report.findings
    );
    assert_eq!(report.allows_used, 1, "the justified allow must be counted");
}

/// The acceptance bar for this repo: zero findings over the real
/// workspace at zero allowlist entries.
#[test]
fn workspace_is_clean_at_zero_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists());
    let report = run_static_passes(&root).expect("scan workspace");
    assert!(
        report.findings.is_empty(),
        "workspace findings: {:#?}",
        report.findings
    );
    assert_eq!(report.allows_used, 0, "the workspace target is zero allows");
}

/// The service subsystem (ISSUE 9) scanned in isolation: the admission
/// queue, fairness ledger, trace synthesizer and pump loop must hold
/// every determinism rule — no wall clocks, no unseeded RNG, no hash
/// iteration — at zero allowlist entries.
#[test]
fn service_module_is_clean_at_zero_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .join("crates/core/src/service");
    assert!(root.join("mod.rs").exists());
    let report = run_static_passes(&root).expect("scan service module");
    assert_eq!(
        report.files_scanned, 4,
        "mod + queue + ledger + trace are the whole module"
    );
    assert!(
        report.findings.is_empty(),
        "service findings: {:#?}",
        report.findings
    );
    assert_eq!(report.allows_used, 0, "the service target is zero allows");
}

/// Falsifiability of the wire-value auditor: `ProbeMsg` in the bad
/// fixture lists one word, but the recorded census in
/// `fixtures/bad_wire.json` shows its field carrying `2^40` on an
/// n = 16 run — far past the `2·⌈log2 n⌉ = 8` bit budget. The joined
/// audit must produce exactly that one finding, anchored at the impl.
#[test]
fn wire_audit_flags_poly_busting_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad_wire.json");
    let raw = std::fs::read_to_string(&path).expect("read bad_wire.json");
    let report: WireReport = serde_json::from_str(&raw).expect("parse WireReport");
    let audit = run_wire_audit(&fixture("bad_ws"), &report, &path, false).expect("scan fixture");
    assert_eq!(audit.findings.len(), 1, "{:#?}", audit.findings);
    assert_eq!(audit.findings[0].rule, "wire-values");
    let text = audit.findings[0].to_string();
    assert!(
        text.contains("`ProbeMsg.level` carried max value"),
        "{text}"
    );
    assert!(text.contains("wire_probe.rs"), "{text}");
    assert_eq!(audit.allows_used, 0);
}

/// The workspace-level wire bar: a full certification census (every
/// production protocol driven on a 16-node run) joined against the
/// production impls yields zero findings (no lossy listing, no field
/// over the law), zero allows, and leaves no impl unmeasured.
#[test]
fn wire_audit_workspace_is_clean_at_full_coverage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let census = run_census().expect("census run");
    let report = WireReport::new(16, census);
    let audit =
        run_wire_audit(&root, &report, Path::new("<census>"), true).expect("scan workspace");
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
    assert_eq!(audit.allows_used, 0, "the wire target is zero allows");
    assert_eq!(
        (audit.impls_found, audit.types_joined),
        (12, 12),
        "every production Message impl found and measured"
    );
}

#[test]
fn interleave_schedules_are_bit_identical() {
    let p = InterleaveParams {
        budget: 48,
        ..InterleaveParams::default()
    };
    let out = order_sweep(&p).expect("healthy executor");
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
    let p = InterleaveParams {
        budget: 16,
        ..InterleaveParams::default()
    };
    let out = order_sweep(&p).expect("healthy executor");
    assert!(out.rounds >= 20, "{out:?}");
    assert_eq!(out.rounds_permuted, out.rounds, "{out:?}");
}

#[test]
fn interleave_checker_detects_injected_merge_race() {
    let p = InterleaveParams::default();
    let (tried, detected) = bug_injection_detects(&p, 24).expect("runs complete");
    assert!(
        detected,
        "merge-in-run-order bug not detected in {tried} schedules — the checker \
         cannot see the race class it exists for"
    );
}

/// The fault-timing axis holds bit-identity on the healthy engine…
#[test]
fn timing_schedules_are_bit_identical() {
    let t = fault_timing_sweep(&InterleaveParams::default(), 16).expect("healthy engine");
    assert_eq!(t.divergent, 0, "{t:?}");
    assert_eq!(t.timings_run, 16);
    assert!(
        t.distinct_outcomes >= 2,
        "the timing knob must actually move faults: {t:?}"
    );
}

/// …and detects its planted bug class.
#[test]
fn timing_checker_detects_injected_bug() {
    let (tried, detected) =
        timing_bug_injection_detects(&InterleaveParams::default(), 24).expect("runs complete");
    assert!(
        detected,
        "moved-miss retransmit ledger bug not detected in {tried} timings"
    );
}

/// The CI gate must fail on the bad fixture and pass with the exact
/// expected count — exercised through the real binary.
#[test]
fn cli_gate_rejects_bad_fixture() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let bad_root = fixture("bad_ws");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&bad_root)
        .args(["--skip-interleave", "--deny-warnings"])
        .output()
        .expect("run drw-analyze");
    assert!(
        !out.status.success(),
        "gate must fail on the bad fixture; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&bad_root)
        .args(["--skip-interleave", "--expect-findings", "5"])
        .output()
        .expect("run drw-analyze");
    assert!(
        out.status.success(),
        "expected exactly 5 findings; stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The runtime wire gate through the real binary: the bad fixture's 5
/// determinism findings plus the joined `wire-values` finding make 6.
#[test]
fn cli_gate_wire_report_rejects_bad_fixture() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let wire = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad_wire.json");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(fixture("bad_ws"))
        .args(["--skip-interleave", "--wire-report"])
        .arg(&wire)
        .args(["--expect-findings", "6"])
        .output()
        .expect("run drw-analyze");
    assert!(
        out.status.success(),
        "expected exactly 6 findings; stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Budget truncation is loud: a deliberately tiny budget must make the
/// binary report partial coverage of the schedule space instead of
/// silently truncating the sweep.
#[test]
fn cli_reports_budget_truncation() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let out = std::process::Command::new(bin)
        .args([
            "--only-interleave",
            "--interleave-budget",
            "8",
            "--timing-budget",
            "4",
        ])
        .output()
        .expect("run drw-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("8 receive-order schedules"), "{stdout}");
    assert!(stdout.contains("4 scripted timings swept"), "{stdout}");
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
        .args(["--only-interleave", "--item-budget", "8"])
        .output()
        .expect("run drw-analyze");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option `--item-budget`"),
        "{stderr}"
    );
}

#[test]
fn cli_gate_accepts_good_fixture() {
    let bin = env!("CARGO_BIN_EXE_drw-analyze");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(fixture("good_ws"))
        .args(["--skip-interleave", "--deny-warnings"])
        .output()
        .expect("run drw-analyze");
    assert!(
        out.status.success(),
        "gate must pass on the clean fixture; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
