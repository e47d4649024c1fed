//! Pass 2 — determinism lint and SAFETY audit.
//!
//! The repeatability contract (same graph, same seed, same report on
//! every executor) only holds if protocol code never consults ambient
//! nondeterminism. This pass bans the usual suspects at the token
//! level in the protocol and algorithm crates (`drw-congest`,
//! `drw-core`, `drw-graph`, `drw-spanning`, `drw-mixing`,
//! `drw-lowerbound`), and all but the wall-clock rule in the
//! experiment harness (`drw-experiments`), whose whole job is timing
//! things:
//!
//! * `hash-collections` — `HashMap`/`HashSet`: iteration order is
//!   randomized per process, the classic verdict-divergence bug; use
//!   `BTreeMap`/`BTreeSet` or sorted vectors.
//! * `wall-clock` — `Instant`/`SystemTime`: time must never influence
//!   protocol behaviour; rounds are the only clock.
//! * `unseeded-rng` — `thread_rng`/`from_entropy`/`OsRng`: every RNG
//!   must derive from the run seed (`seed_from_u64`/`from_seed`).
//!
//! Workspace-wide, independent of crate:
//!
//! * `safety-comment` — every `unsafe` token must carry a `// SAFETY:`
//!   comment on the same line or within the three lines above it.
//!
//! Escape hatch: a finding on line `L` is suppressed by a comment
//! `// drw-analyze: allow(rule-name, reason)` on line `L` or `L-1`.
//! The reason is mandatory; an allow without one is itself a finding
//! (`allow-without-reason`). The CLI reports how many allowlist
//! entries were consumed — the workspace target is zero.

use crate::lexer::Lexed;
use crate::Finding;
use std::path::Path;

/// Which determinism rules apply to one file (the SAFETY rule always
/// runs, workspace-wide). See [`crate::determinism_scope`] for the
/// path → ruleset policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Ban `HashMap`/`HashSet` (randomized iteration order).
    pub hash_collections: bool,
    /// Ban `Instant`/`SystemTime` (rounds are the only clock).
    pub wall_clock: bool,
    /// Ban `thread_rng`/`from_entropy`/`OsRng` (seed-derived RNG only).
    pub unseeded_rng: bool,
}

impl RuleSet {
    /// No determinism rules — only the workspace-wide SAFETY rule runs.
    pub const NONE: RuleSet = RuleSet {
        hash_collections: false,
        wall_clock: false,
        unseeded_rng: false,
    };
    /// The full ruleset of the protocol and algorithm crates.
    pub const FULL: RuleSet = RuleSet {
        hash_collections: true,
        wall_clock: true,
        unseeded_rng: true,
    };
    /// The experiment-harness ruleset: wall-clock reads are its
    /// purpose, everything else still applies.
    pub const NO_CLOCK: RuleSet = RuleSet {
        wall_clock: false,
        ..RuleSet::FULL
    };

    /// Whether `rule` is enabled in this set.
    fn enables(self, rule: &str) -> bool {
        match rule {
            "hash-collections" => self.hash_collections,
            "wall-clock" => self.wall_clock,
            "unseeded-rng" => self.unseeded_rng,
            _ => true,
        }
    }
}

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit (inclusive window `[line - SAFETY_WINDOW, line]`).
const SAFETY_WINDOW: usize = 3;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Line the comment sits on.
    pub line: usize,
    /// Rule name being suppressed.
    pub rule: String,
    /// Whether a non-empty reason follows the rule name.
    pub has_reason: bool,
    /// Set once the entry suppresses a finding.
    pub used: std::cell::Cell<bool>,
}

/// Parses every `drw-analyze: allow(...)` comment in a file.
pub fn parse_allows(lexed: &Lexed) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Allow entries are code annotations, not documentation: a doc
        // comment describing the syntax must not create one.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| c.text.starts_with(p))
        {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("drw-analyze: allow(") {
            let args = &rest[pos + "drw-analyze: allow(".len()..];
            let close = args.find(')').unwrap_or(args.len());
            let inside = &args[..close];
            let (rule, reason) = match inside.split_once(',') {
                Some((r, why)) => (r.trim(), !why.trim().is_empty()),
                None => (inside.trim(), false),
            };
            out.push(AllowEntry {
                line: c.line,
                rule: rule.to_string(),
                has_reason: reason,
                used: std::cell::Cell::new(false),
            });
            rest = &args[close..];
        }
    }
    // A multi-line block comment records its text on every spanned
    // line, which would duplicate entries; keep one per (line, rule).
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// True iff `rule` at `line` is covered by an allow entry (same line or
/// the line above). Marks the entry used. Shared with the wire-value
/// audit, whose findings anchor at `impl Message` sites and honour the
/// same suppression syntax.
pub(crate) fn allowed(allows: &[AllowEntry], rule: &str, line: usize) -> bool {
    for a in allows {
        if a.rule == rule && a.has_reason && (a.line == line || a.line + 1 == line) {
            a.used.set(true);
            return true;
        }
    }
    false
}

/// Identifier → rule it violates, for the protocol-crate rules.
fn ident_rule(ident: &str) -> Option<(&'static str, &'static str)> {
    match ident {
        "HashMap" | "HashSet" => Some((
            "hash-collections",
            "randomized iteration order breaks run repeatability; use BTreeMap/BTreeSet \
             or a sorted Vec",
        )),
        "Instant" | "SystemTime" => Some((
            "wall-clock",
            "wall-clock time must not influence protocol behaviour; rounds are the only \
             clock",
        )),
        "thread_rng" | "from_entropy" | "OsRng" => Some((
            "unseeded-rng",
            "all randomness must derive from the run seed via seed_from_u64/from_seed",
        )),
        _ => None,
    }
}

/// Runs the determinism rules over one lexed file.
///
/// `rules` selects which hash/clock/rng rules fire (the caller derives
/// it from the path, see [`crate::determinism_scope`]); the SAFETY rule
/// always runs.
pub fn lint_file(
    lexed: &Lexed,
    file: &Path,
    rules: RuleSet,
    allows: &[AllowEntry],
    findings: &mut Vec<Finding>,
) {
    for tok in &lexed.tokens {
        let Some(ident) = tok.ident() else { continue };
        if let Some((rule, why)) = ident_rule(ident) {
            if rules.enables(rule) && !allowed(allows, rule, tok.line) {
                findings.push(Finding::new(
                    rule,
                    file,
                    tok.line,
                    format!("`{ident}` in a determinism-scoped crate: {why}"),
                ));
            }
        }
        if ident == "unsafe" {
            let lo = tok.line.saturating_sub(SAFETY_WINDOW);
            let justified = lexed.comment_in_range_contains(lo, tok.line, "SAFETY:");
            if !justified && !allowed(allows, "safety-comment", tok.line) {
                findings.push(Finding::new(
                    "safety-comment",
                    file,
                    tok.line,
                    "`unsafe` without a `// SAFETY:` comment on the same line or the three \
                     lines above it"
                        .to_string(),
                ));
            }
        }
    }
    // Allows that carry no reason are findings in their own right, and
    // so are allows that never fired (stale suppressions).
    for a in allows {
        if !a.has_reason {
            findings.push(Finding::new(
                "allow-without-reason",
                file,
                a.line,
                format!(
                    "drw-analyze: allow({}) has no reason — write \
                     `allow({}, <why this is sound>)`",
                    a.rule, a.rule
                ),
            ));
        } else if !a.used.get() && !a.rule.starts_with("wire-") {
            // Wire-audit allows are consumed by a separate pass that
            // only runs when a wire report is supplied; a static-only
            // run must not call them stale.
            findings.push(Finding::new(
                "allow-unused",
                file,
                a.line,
                format!(
                    "drw-analyze: allow({}) suppresses nothing — remove the stale entry",
                    a.rule
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn lint_rules(src: &str, rules: RuleSet) -> Vec<Finding> {
        let lexed = lex(src);
        let allows = parse_allows(&lexed);
        let mut out = Vec::new();
        lint_file(&lexed, &PathBuf::from("mem.rs"), rules, &allows, &mut out);
        out
    }

    fn lint(src: &str, protocol_scope: bool) -> Vec<Finding> {
        lint_rules(
            src,
            if protocol_scope {
                RuleSet::FULL
            } else {
                RuleSet::NONE
            },
        )
    }

    #[test]
    fn hash_collections_flagged_in_scope_only() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();";
        assert_eq!(lint(src, true).len(), 3);
        assert!(lint(src, false).is_empty());
    }

    #[test]
    fn harness_ruleset_permits_the_clock_but_nothing_else() {
        let src = "let t = Instant::now();\nlet r = thread_rng();\nlet m = HashMap::new();";
        let rules: Vec<String> = lint_rules(src, RuleSet::NO_CLOCK)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, ["unseeded-rng", "hash-collections"]);
    }

    #[test]
    fn unused_wire_allow_is_not_stale() {
        // Wire rules are consumed by the wire-audit pass, which may not
        // run; static-only lints must not flag the entry as unused.
        let src = "// drw-analyze: allow(wire-values, sentinel priced by a separate proof)\n\
                   let x = 1;";
        assert!(lint(src, true).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = "// HashMap would break determinism\nlet s = \"Instant::now\";";
        assert!(lint(src, true).is_empty());
    }

    #[test]
    fn wall_clock_and_rng() {
        let f = lint("let t = Instant::now();\nlet r = thread_rng();", true);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["wall-clock", "unseeded-rng"]);
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "// drw-analyze: allow(hash-collections, test-only histogram)\n\
                   let m = HashMap::new();";
        assert!(lint(src, true).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "// drw-analyze: allow(hash-collections)\nlet m = HashMap::new();";
        let f = lint(src, true);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert!(rules.contains(&"hash-collections"));
        assert!(rules.contains(&"allow-without-reason"));
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let f = lint("unsafe { do_it() }", false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        let ok = lint(
            "// SAFETY: contract upheld by caller\nunsafe { do_it() }",
            false,
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn safety_window_is_three_lines() {
        let ok = lint("// SAFETY: x\n//\n//\nunsafe { f() }", false);
        assert!(ok.is_empty());
        let far = lint("// SAFETY: x\n//\n//\n//\nunsafe { f() }", false);
        assert_eq!(far.len(), 1);
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_unsafe() {
        assert!(lint("#![forbid(unsafe_code)]", false).is_empty());
    }
}
