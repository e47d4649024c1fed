//! `drw-analyze` — static analysis and model conformance for the DRW
//! workspace.
//!
//! Three passes, one verdict (see DESIGN.md, "Static analysis & model
//! conformance"):
//!
//! 1. **Determinism lint** ([`determinism`]): hash collections,
//!    wall-clock reads and unseeded RNGs are banned from the protocol
//!    crates; every `unsafe` block workspace-wide must carry a
//!    `// SAFETY:` comment.
//! 2. **Interleaving check** ([`interleave`]): a protocol's receive
//!    handlers are replayed with every round's receivers in seeded
//!    permutations, and fault delivery is replayed under seeded timing
//!    permutations — all must stay bit-identical to the in-order run.
//! 3. **Wire-value audit** ([`wire`]): a recorded run's per-field
//!    magnitude census is joined against the production `impl Message`
//!    sites, so a one-word field cannot smuggle more than `O(log n)`
//!    bits of actual value and a wire listing that leaves a field out
//!    is caught by its failed round trip. [`certify`] packages all
//!    three into a machine-readable CONGEST-conformance certificate.
//!
//! A message's word count needs no pass: it is counted from the same
//! wire listing the census records (`drw_congest::Message::encode`).
//! The crate is hermetic — the token scans run on a purpose-built lexer
//! ([`lexer`]), not a `syn` dependency, because the build environment
//! is offline by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod determinism;
pub mod interleave;
pub mod lexer;
pub mod wire;

use std::fmt;
use std::path::{Path, PathBuf};

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`hash-collections`, `wire-values`, ...).
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

/// Result of the determinism pass over one source tree.
#[derive(Debug, Default)]
pub struct StaticReport {
    /// All findings, in deterministic (path, line) order.
    pub findings: Vec<Finding>,
    /// Files lexed and linted.
    pub files_scanned: usize,
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

/// Runs the determinism pass over every `.rs` file under `root`.
pub fn run_static_passes(root: &Path) -> std::io::Result<StaticReport> {
    let files = collect_rs_files(root)?;
    let mut report = StaticReport {
        files_scanned: files.len(),
        ..StaticReport::default()
    };
    for path in &files {
        let lexed = lexer::lex(&std::fs::read_to_string(path)?);
        let allows = determinism::parse_allows(&lexed);
        determinism::lint_file(
            &lexed,
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

/// Runs the wire-value audit of a recorded census against the
/// production `impl Message` sites under `root`: those in a `src/`
/// tree, outside `#[cfg(test)]` items. This is the entry point behind
/// `--wire-report` and the certifier; see [`wire::audit_wire`] for the
/// law.
pub fn run_wire_audit(
    root: &Path,
    report: &wire::WireReport,
    report_path: &Path,
    require_full_coverage: bool,
) -> std::io::Result<wire::WireAudit> {
    let mut impls = Vec::new();
    let mut allows = std::collections::BTreeMap::new();
    for path in collect_rs_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if !rel.components().any(|c| c.as_os_str() == "src") {
            continue;
        }
        let lexed = lexer::lex(&std::fs::read_to_string(&path)?);
        for (target, line) in wire::message_impls(&lexed) {
            let file = path.clone();
            impls.push(wire::ImplSite { target, file, line });
        }
        allows.insert(path, determinism::parse_allows(&lexed));
    }
    Ok(wire::audit_wire(
        report,
        report_path,
        &impls,
        &allows,
        require_full_coverage,
    ))
}
