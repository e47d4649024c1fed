//! `drw-analyze` — model conformance for the DRW workspace.
//!
//! Two passes, one verdict (see DESIGN.md, "Static analysis & model
//! conformance"):
//!
//! 1. **Interleaving check** ([`interleave`]): a protocol's receive
//!    handlers are replayed with every round's receivers in seeded
//!    permutations, with and without seeded fault plans — all must
//!    stay bit-identical to the in-order run.
//! 2. **Wire-value audit** ([`wire`]): a recorded run's per-field
//!    magnitude census is joined against the production `impl Message`
//!    sites, so a one-word field cannot smuggle more than `O(log n)`
//!    bits of actual value and a wire listing that leaves a field out
//!    is caught by its failed round trip. [`certify`] packages both
//!    into a machine-readable CONGEST-conformance certificate.
//!
//! A message's word count needs no pass: it is counted from the same
//! wire listing the census records (`drw_congest::Message::encode`).
//! The determinism rules (no hash iteration, no wall clock, no
//! unseeded RNG, no undocumented `unsafe`) are clippy configuration
//! (`crates/clippy.toml`), not a pass of this crate. The impl finder
//! runs on a purpose-built lexer ([`lexer`]), not a `syn` dependency,
//! because the build environment is offline by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod interleave;
pub mod lexer;
pub mod wire;

use std::fmt;
use std::path::{Path, PathBuf};

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`wire-values`, `wire-coverage`, ...).
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

/// Recursively collects `.rs` files under `root` in sorted order,
/// skipping build output, VCS internals and the standalone
/// `benchmark/` package (its own cargo workspace, frozen by
/// `BENCHMARK.json`'s `paths` — findings there could not be acted on
/// from this workspace).
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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
                if matches!(name, "target" | ".git" | "benchmark") {
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

/// Runs the wire-value audit of a census recorded on an `n`-node run
/// against the production `impl Message` sites under `root`: those in
/// a `src/` tree, outside `#[cfg(test)]` items. This is the certifier's
/// entry point; see [`wire::audit_wire`] for the law.
pub fn run_wire_audit(
    root: &Path,
    n: u64,
    census: &drw_congest::WireCensus,
) -> std::io::Result<wire::WireAudit> {
    let mut impls = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if !rel.components().any(|c| c.as_os_str() == "src") {
            continue;
        }
        let tokens = lexer::lex(&std::fs::read_to_string(&path)?);
        for (target, line) in wire::message_impls(&tokens) {
            let file = path.clone();
            impls.push(wire::ImplSite { target, file, line });
        }
    }
    Ok(wire::audit_wire(n, census, &impls))
}
