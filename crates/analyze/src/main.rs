//! CLI entry point: `cargo run -p drw-analyze -- [options]`.
//!
//! Runs the static passes (CONGEST word accounting, determinism lint,
//! SAFETY audit) over the workspace and, unless told otherwise, the
//! exhaustive interleaving check. Exits non-zero when `--deny-warnings`
//! is set and anything was found — the CI gate.
//!
//! Options:
//!
//! * `--root <path>` — source tree to analyze (default: the workspace
//!   root the binary was built in, else the current directory).
//! * `--deny-warnings` — exit 1 on any finding (CI mode).
//! * `--expect-findings <n>` — exit 0 iff exactly `n` findings were
//!   produced; used to verify the gate *fails* on bad fixtures.
//! * `--skip-interleave` / `--only-interleave` — select passes.
//! * `--interleave-budget <n>` — shard-claim schedule budget (default
//!   1024).
//! * `--item-budget <n>` — within-shard item schedule budget (default:
//!   the claim budget).
//! * `--timing-budget <n>` — scripted fault-timing budget (default 256).
//! * `--torus <rows>x<cols>` — interleaving-checker graph (default 4x4).
//! * `--wire-report <json>` — join a recorded wire census (a
//!   `WireReport` file) against the static pricing table and flag
//!   fields whose observed magnitudes bust the `O(log n)` budget.
//! * `--certify [--cert-out <path>]` — run the full conformance
//!   certification (census + wire audit + static passes + all three
//!   schedule sweeps) and write the certificate JSON (default
//!   `<root>/CERT_PR10.json`). Replaces the other passes.

use drw_analyze::certify::CertParams;
use drw_analyze::interleave::{InterleaveOutcome, InterleaveParams};
use drw_analyze::wire::WireReport;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    deny_warnings: bool,
    expect_findings: Option<usize>,
    skip_interleave: bool,
    only_interleave: bool,
    interleave: InterleaveParams,
    item_budget: Option<u64>,
    timing_budget: u64,
    wire_report: Option<PathBuf>,
    certify: bool,
    cert_out: Option<PathBuf>,
}

fn parse_opts() -> Result<Opts, String> {
    let default_root = std::env::var("DRW_ANALYZE_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // The manifest dir is crates/analyze; the workspace root is
            // two levels up. Fall back to the current directory when
            // the binary runs outside its build tree.
            let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            here.parent()
                .and_then(|p| p.parent())
                .map(PathBuf::from)
                .filter(|p| p.join("Cargo.toml").exists())
                .unwrap_or_else(|| PathBuf::from("."))
        });
    let mut o = Opts {
        root: default_root,
        deny_warnings: false,
        expect_findings: None,
        skip_interleave: false,
        only_interleave: false,
        interleave: InterleaveParams::default(),
        item_budget: None,
        timing_budget: 256,
        wire_report: None,
        certify: false,
        cert_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--root" => o.root = PathBuf::from(value("--root")?),
            "--deny-warnings" => o.deny_warnings = true,
            "--expect-findings" => {
                o.expect_findings = Some(
                    value("--expect-findings")?
                        .parse()
                        .map_err(|e| format!("--expect-findings: {e}"))?,
                )
            }
            "--skip-interleave" => o.skip_interleave = true,
            "--only-interleave" => o.only_interleave = true,
            "--interleave-budget" => {
                o.interleave.budget = value("--interleave-budget")?
                    .parse()
                    .map_err(|e| format!("--interleave-budget: {e}"))?
            }
            "--item-budget" => {
                o.item_budget = Some(
                    value("--item-budget")?
                        .parse()
                        .map_err(|e| format!("--item-budget: {e}"))?,
                )
            }
            "--timing-budget" => {
                o.timing_budget = value("--timing-budget")?
                    .parse()
                    .map_err(|e| format!("--timing-budget: {e}"))?
            }
            "--wire-report" => o.wire_report = Some(PathBuf::from(value("--wire-report")?)),
            "--certify" => o.certify = true,
            "--cert-out" => o.cert_out = Some(PathBuf::from(value("--cert-out")?)),
            "--torus" => {
                let v = value("--torus")?;
                let (r, c) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--torus expects <rows>x<cols>, got `{v}`"))?;
                o.interleave.rows = r.parse().map_err(|e| format!("--torus rows: {e}"))?;
                o.interleave.cols = c.parse().map_err(|e| format!("--torus cols: {e}"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("drw-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let mut findings = 0usize;

    if opts.certify {
        let params = CertParams {
            claim_budget: opts.interleave.budget,
            item_budget: opts.item_budget.unwrap_or(opts.interleave.budget),
            timing_budget: opts.timing_budget,
        };
        let cert = match drw_analyze::certify::certify(&opts.root, &params) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("drw-analyze: certification failed: {e}");
                return ExitCode::from(2);
            }
        };
        for f in &cert.findings {
            println!("{f}");
        }
        findings += cert.findings.len();
        let s = &cert.schedules;
        println!(
            "drw-analyze: certificate: n = {}, {} Message impls audited, {} measured \
             on the wire, {} types priced; schedules swept: {} claim (space {}), \
             {} item (space {}), {} fault timings ({} distinct outcomes); \
             bug injections detected: claim {}, item {}, timing {}; {} findings",
            cert.n,
            cert.impls_audited,
            cert.impls_measured,
            cert.types.len(),
            s.claim_swept,
            s.claim_space,
            s.item_swept,
            s.item_space,
            s.timing_swept,
            s.timing_distinct_outcomes,
            s.claim_bug_detected,
            s.item_bug_detected,
            s.timing_bug_detected,
            cert.findings.len(),
        );
        let out = opts
            .cert_out
            .clone()
            .unwrap_or_else(|| opts.root.join("CERT_PR10.json"));
        let json = match serde_json::to_string_pretty(&cert) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("drw-analyze: cannot serialize certificate: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&out, json + "\n") {
            eprintln!("drw-analyze: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("drw-analyze: certificate written to {}", out.display());
        return finish(findings, &opts);
    }

    if !opts.only_interleave {
        let report = match drw_analyze::run_static_passes(&opts.root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("drw-analyze: cannot scan {}: {e}", opts.root.display());
                return ExitCode::from(2);
            }
        };
        for f in &report.findings {
            println!("{f}");
        }
        findings += report.findings.len();
        println!(
            "drw-analyze: static passes: {} files scanned, {} Message impls audited, \
             {} findings, {} allowlist entries in effect",
            report.files_scanned,
            report.impls_audited,
            report.findings.len(),
            report.allows_used,
        );
    }

    if let Some(path) = &opts.wire_report {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<WireReport>(&s).map_err(|e| e.to_string()))
        {
            Ok(report) => match drw_analyze::run_wire_audit(&opts.root, &report, path, false) {
                Ok(audit) => {
                    for f in &audit.findings {
                        println!("{f}");
                    }
                    findings += audit.findings.len();
                    println!(
                        "drw-analyze: wire audit: {} recorded types joined against the \
                         static pricing table, {} fields priced at n = {}, {} findings, \
                         {} allowlist entries in effect",
                        audit.types_joined,
                        audit.fields_priced,
                        report.n,
                        audit.findings.len(),
                        audit.allows_used,
                    );
                }
                Err(e) => {
                    eprintln!("drw-analyze: cannot scan {}: {e}", opts.root.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("drw-analyze: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if !opts.skip_interleave {
        match drw_analyze::interleave::exhaustive_check(&opts.interleave) {
            Ok(InterleaveOutcome {
                schedules_run,
                schedule_space,
                sharded_rounds,
                max_shards,
                divergent: _,
            }) => {
                println!(
                    "drw-analyze: interleaving check: {schedules_run} distinct shard-claim \
                     schedules of {} on a {}x{} torus ({sharded_rounds} sharded rounds, up \
                     to {max_shards} shards/round){}, all bit-identical to the sequential \
                     reference",
                    space_str(schedule_space),
                    opts.interleave.rows,
                    opts.interleave.cols,
                    coverage_note(schedules_run, schedule_space),
                );
            }
            Err(e) => {
                println!("drw-analyze: interleaving check FAILED: {e}");
                findings += 1;
            }
        }

        // Item-level sweep: same claim order, permuted message order
        // within each claimed shard. Small shards (production-sized
        // shards hold hundreds of messages) so single shards carry
        // permutable item counts.
        let mut item_params = opts.interleave.clone();
        item_params.budget = opts.item_budget.unwrap_or(opts.interleave.budget);
        item_params.msgs_per_shard = 4;
        match drw_analyze::interleave::item_exhaustive_check(&item_params) {
            Ok(out) => {
                println!(
                    "drw-analyze: item-order check: {} distinct within-shard item \
                     schedules of {} ({} permutable shard visits, up to {} items/shard){}, \
                     all bit-identical to the sequential reference",
                    out.schedules_run,
                    space_str(out.schedule_space),
                    out.permutable_shards,
                    out.max_items,
                    coverage_note(out.schedules_run, out.schedule_space),
                );
            }
            Err(e) => {
                println!("drw-analyze: item-order check FAILED: {e}");
                findings += 1;
            }
        }

        match drw_analyze::interleave::fault_timing_sweep(&opts.interleave, opts.timing_budget) {
            Ok(out) => {
                println!(
                    "drw-analyze: fault-timing check: {} scripted timings swept \
                     ({} distinct end states), every timing bit-identical across \
                     sequential and live sharded backends",
                    out.timings_run, out.distinct_outcomes,
                );
            }
            Err(e) => {
                println!("drw-analyze: fault-timing check FAILED: {e}");
                findings += 1;
            }
        }
    }

    finish(findings, &opts)
}

/// Renders a (possibly saturated) schedule-space cardinality.
fn space_str(space: u128) -> String {
    if space == u128::MAX {
        "a space >= 2^128".to_string()
    } else {
        format!("a space of {space}")
    }
}

/// Makes budget truncation loud: either the sweep exhausted the space or
/// the output says exactly how much of it was covered.
fn coverage_note(run: u64, space: u128) -> &'static str {
    if u128::from(run) >= space {
        " — space exhausted"
    } else {
        " — budget-capped, partial coverage"
    }
}

fn finish(findings: usize, opts: &Opts) -> ExitCode {
    if let Some(expected) = opts.expect_findings {
        if findings == expected {
            println!("drw-analyze: found the expected {expected} findings");
            return ExitCode::SUCCESS;
        }
        eprintln!("drw-analyze: expected {expected} findings, got {findings}");
        return ExitCode::FAILURE;
    }
    if findings > 0 && opts.deny_warnings {
        eprintln!("drw-analyze: {findings} findings (deny-warnings)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
