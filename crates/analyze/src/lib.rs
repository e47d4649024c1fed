//! `drw-analyze` — static analysis and model conformance for the DRW
//! workspace.
//!
//! Four passes, one verdict (see DESIGN.md, "Static analysis & model
//! conformance"):
//!
//! 1. **CONGEST word accounting** ([`words`]): every `impl Message for
//!    T` in production code is cross-checked against `T`'s payload
//!    shape, so a compound message cannot silently ride the trait's
//!    1-word default and a declared budget can never under-report the
//!    wire cost the model charges.
//! 2. **Determinism lint** ([`determinism`]): hash collections,
//!    wall-clock reads and unseeded RNGs are banned from the protocol
//!    crates; every `unsafe` block workspace-wide must carry a
//!    `// SAFETY:` comment.
//! 3. **Exhaustive interleaving check** ([`interleave`]): the sharded
//!    executor is replayed under enumerated shard-claim and
//!    within-shard item schedules, and fault delivery is replayed under
//!    enumerated timing permutations — all must stay bit-identical to
//!    the sequential reference.
//! 4. **Wire-value audit** ([`wire`]): a recorded run's per-field
//!    magnitude census is joined against the static pricing table, so
//!    a one-word field cannot smuggle more than `O(log n)` bits of
//!    actual value. [`certify`] packages all four into a
//!    machine-readable CONGEST-conformance certificate.
//!
//! The crate is hermetic — the scanner is a purpose-built lexer and
//! item parser ([`lexer`], [`scan`]), not a `syn` dependency, because
//! the build environment is offline by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod determinism;
pub mod interleave;
pub mod lexer;
pub mod scan;
pub mod wire;
pub mod words;

use std::fmt;
use std::path::{Path, PathBuf};

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`congest-words`, `hash-collections`, ...).
    pub rule: String,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(rule: &str, file: &Path, line: usize, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_path_buf(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of the static passes (words + determinism + safety) over one
/// source tree.
#[derive(Debug, Default)]
pub struct StaticReport {
    /// All findings, in deterministic (path, line) order.
    pub findings: Vec<Finding>,
    /// Files lexed and scanned.
    pub files_scanned: usize,
    /// Production `impl Message for T` blocks audited.
    pub impls_audited: usize,
    /// Allowlist entries that suppressed at least one finding.
    pub allows_used: usize,
}

/// Recursively collects `.rs` files under `root` in sorted order,
/// skipping build output, VCS internals, the analyzer's own fixture
/// trees (fixtures are analyzed explicitly by pointing `--root` at
/// them) and the standalone `benchmark/` package (its own cargo
/// workspace, frozen by `BENCHMARK.json`'s `paths` — findings there
/// could not be acted on from this workspace).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if matches!(
                    name,
                    "target" | ".git" | "fixtures" | ".claude" | "benchmark"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The determinism ruleset for a path. Protocol and algorithm crates
/// get the full set — repeatability there is contractual; the
/// experiment harness gets everything except the wall-clock rule
/// (timing things is its purpose); everything else only the
/// workspace-wide SAFETY rule.
pub fn determinism_scope(path: &Path) -> determinism::RuleSet {
    let s = path.to_string_lossy().replace('\\', "/");
    let any = |roots: &[&str]| roots.iter().any(|c| s.contains(c));
    if any(&[
        "crates/congest/",
        "crates/core/",
        "crates/graph/",
        "crates/spanning/",
        "crates/mixing/",
        "crates/lowerbound/",
    ]) {
        determinism::RuleSet::FULL
    } else if s.contains("crates/experiments/") {
        determinism::RuleSet::NO_CLOCK
    } else {
        determinism::RuleSet::NONE
    }
}

/// True iff the word-accounting pass audits this path. Test harnesses
/// and benches may define throwaway messages that never cross a
/// modelled edge in production.
pub fn words_scope(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    !["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|c| s.contains(c))
}

/// Runs the two static passes over every `.rs` file under `root`.
pub fn run_static_passes(root: &Path) -> std::io::Result<StaticReport> {
    let files = collect_rs_files(root)?;
    let mut report = StaticReport {
        files_scanned: files.len(),
        ..StaticReport::default()
    };

    // Lex and scan everything once; the word auditor needs the whole
    // workspace's definitions before it can judge any single impl
    // (payload structs and their impls may live in different crates).
    let mut lexed_files = Vec::with_capacity(files.len());
    let mut scans = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let lexed = lexer::lex(&src);
        if words_scope(path) {
            scans.push((path.clone(), scan::scan(&lexed)));
        }
        lexed_files.push((path.clone(), lexed));
    }

    // Pass 1: CONGEST word accounting.
    let defs = words::Defs::collect(&scans);
    for (path, s) in &scans {
        for imp in &s.impls {
            report.impls_audited += 1;
            report.findings.extend(words::audit_impl(imp, &defs, path));
        }
    }

    // Pass 2: determinism + SAFETY.
    for (path, lexed) in &lexed_files {
        let allows = determinism::parse_allows(lexed);
        determinism::lint_file(
            lexed,
            path,
            determinism_scope(path),
            &allows,
            &mut report.findings,
        );
        report.allows_used += allows.iter().filter(|a| a.used.get()).count();
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Runs the wire-value audit of a recorded census against the static
/// scan of every word-scoped `.rs` file under `root`. This is the
/// entry point behind `--wire-report` and the certifier; see
/// [`wire::audit_wire`] for the law.
pub fn run_wire_audit(
    root: &Path,
    report: &wire::WireReport,
    report_path: &Path,
    require_full_coverage: bool,
) -> std::io::Result<wire::WireAudit> {
    let files = collect_rs_files(root)?;
    let mut scans = Vec::new();
    let mut allows = std::collections::BTreeMap::new();
    for path in &files {
        if !words_scope(path) {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        let lexed = lexer::lex(&src);
        allows.insert(path.clone(), determinism::parse_allows(&lexed));
        scans.push((path.clone(), scan::scan(&lexed)));
    }
    Ok(wire::audit_wire(
        report,
        report_path,
        &scans,
        &allows,
        require_full_coverage,
    ))
}
