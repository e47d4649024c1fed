//! CLI entry point: `cargo run -p drw-analyze -- --cert-out <path> [options]`.
//!
//! Runs the certification over the workspace the binary was built in:
//! the wire census and its audit at full coverage, and the
//! receive-order and faulted sweeps, each with its planted bug.
//! Prints each sweep's coverage, writes the certificate, and exits 1 on
//! any finding or undetected planted bug — the CI gate.
//!
//! Options:
//!
//! * `--cert-out <path>` — where to write the certificate JSON
//!   (required: a reduced-budget run must not overwrite the committed
//!   `CERT_PR10.json` by default).
//! * `--interleave-budget <n>` — receive-order schedule budget (default
//!   1024).
//! * `--fault-budget <n>` — fault-schedule budget (default 256).

use drw_analyze::certify::{CertParams, Certification};
use drw_analyze::interleave;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_opts() -> Result<(CertParams, PathBuf), String> {
    let mut params = CertParams::default();
    let mut cert_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--cert-out" => cert_out = Some(PathBuf::from(value("--cert-out")?)),
            "--interleave-budget" => {
                params.order_budget = value("--interleave-budget")?
                    .parse()
                    .map_err(|e| format!("--interleave-budget: {e}"))?
            }
            "--fault-budget" => {
                params.fault_budget = value("--fault-budget")?
                    .parse()
                    .map_err(|e| format!("--fault-budget: {e}"))?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cert_out = cert_out.ok_or("--cert-out <path> is required")?;
    Ok((params, cert_out))
}

fn main() -> ExitCode {
    let (params, out) = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("drw-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    // The manifest dir is crates/analyze; the workspace root is two
    // levels up. Fall back to the current directory when the binary
    // runs outside its build tree.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .filter(|p| p.join("Cargo.toml").exists())
        .unwrap_or_else(|| PathBuf::from("."));

    let run = match drw_analyze::certify::certify(&root, &params) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("drw-analyze: certification failed: {e}");
            return ExitCode::from(2);
        }
    };
    let cert = &run.certificate;
    for f in &cert.findings {
        println!("{f}");
    }
    let findings = cert.findings.len() + print_sweeps(&run);
    let s = &cert.schedules;
    println!(
        "drw-analyze: certificate: n = {}, {} Message impls audited, {} measured \
         on the wire, {} types priced; schedules swept: {} receive orders \
         (space {}, {} of {} rounds permuted), {} fault schedules ({} distinct \
         outcomes); bug injections detected: order {}, faults {}; {} findings",
        cert.n,
        cert.impls_audited,
        cert.impls_measured,
        cert.types.len(),
        s.order_swept,
        s.order_space,
        s.order_rounds_permuted,
        s.order_rounds,
        s.fault_swept,
        s.fault_distinct_outcomes,
        s.order_bug_detected,
        s.fault_bug_detected,
        cert.findings.len(),
    );

    let json = match serde_json::to_string_pretty(cert) {
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

    if findings > 0 {
        eprintln!("drw-analyze: {findings} findings");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints both sweeps' coverage and planted-bug lines; returns the
/// number of planted bugs that went undetected (a finding each).
fn print_sweeps(run: &Certification) -> usize {
    let o = &run.order;
    println!(
        "drw-analyze: interleaving check: {} receive-order schedules of {} on a \
         {}x{} torus ({} of {} rounds with >= 2 receivers permuted, up to {} \
         receivers/round){}, all bit-identical to the in-order run",
        o.schedules_run,
        space_str(o.schedule_space),
        interleave::ROWS,
        interleave::COLS,
        o.rounds_permuted,
        o.rounds,
        o.max_receivers,
        coverage_note(o.schedules_run, o.schedule_space),
    );
    let s = &run.certificate.schedules;
    let order_missed = planted(
        "merge race",
        run.order_bug_tries,
        "schedules",
        s.order_bug_detected,
    );
    println!(
        "drw-analyze: fault check: {} fault schedules swept ({} distinct end \
         states), every schedule bit-identical across the in-order and \
         scripted receive",
        run.fault.schedules_run, run.fault.distinct_outcomes,
    );
    order_missed
        + planted(
            "merge race under faults",
            run.fault_bug_tries,
            "fault schedules",
            s.fault_bug_detected,
        )
}

/// Reports whether a sweep caught its planted bug; a miss is one
/// finding.
fn planted(bug: &str, tried: u64, unit: &str, detected: bool) -> usize {
    if detected {
        println!("drw-analyze: planted {bug} detected after {tried} {unit}");
        0
    } else {
        println!("drw-analyze: planted {bug} NOT detected in {tried} {unit}");
        1
    }
}

/// Renders a (possibly saturated) schedule-space cardinality.
fn space_str(space: u128) -> String {
    if space == u128::MAX {
        "a space >= 2^128".to_string()
    } else {
        format!("a space of {space}")
    }
}

/// Makes budget truncation loud. Schedules are seeded draws, so even a
/// budget the size of the space may repeat some and miss others.
fn coverage_note(run: u64, space: u128) -> &'static str {
    if u128::from(run) >= space {
        " — budget >= space, draws may repeat"
    } else {
        " — budget-capped, partial coverage"
    }
}
