//! Wire-value audit: the value-level half of CONGEST pricing.
//!
//! A message's word count comes from its one wire listing
//! (`drw_congest::Message::encode`), so the count cannot disagree with
//! the fields. What a listing cannot show is the magnitudes a field
//! actually carries. A `u64` field priced at one word is only sound
//! under the standard CONGEST convention that its values stay `poly(n)`
//! — a field that ships `2^60`-sized values in a 16-node run is using
//! the word as a covert channel.
//!
//! A run executed with [`drw_congest::EngineConfig::record_wire`]
//! produces a [`WireCensus`]: per `Message` type, the per-field maximum
//! magnitude that actually crossed an edge, and the deliveries whose
//! listing did not round-trip (`decode(encode(m)) != m`, the sign of a
//! listing that leaves a field out). The auditor joins the census
//! against the production `impl Message` sites ([`message_impls`]),
//! reports every lossy type (`wire-round-trip`), and prices every field
//! under the wire-value law
//!
//! ```text
//! bits(max_value) <= frac_bits + C * ceil(log2 n)
//! ```
//!
//! where `frac_bits` prices fixed-point precision (e.g. `MassMsg`
//! carries probability mass scaled by `2^40`: 40 bits of precision,
//! `O(log n)` bits of magnitude) and `C` is the law's leniency
//! constant ([`LAW_C`]). Violations are `wire-values` findings
//! anchored at the impl site. Every production impl must have been
//! measured and every measured type must resolve to a production impl
//! (`wire-coverage`).

use crate::lexer::Token;
use crate::Finding;
use drw_congest::WireCensus;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Leniency constant `C` of the wire-value law: a priced field may use
/// up to `C * ceil(log2 n)` magnitude bits. `C = 2` admits any `O(n^2)`
/// quantity (edge counts, walk lengths, position products) while still
/// failing fields that smuggle `poly(n)`-independent payloads through a
/// single word.
pub const LAW_C: u64 = 2;

/// Where findings that no impl site can anchor (a census type without
/// a production impl) point.
const CENSUS_ANCHOR: &str = "<census>";

/// Bits needed to represent `v` (`0` for `v == 0`).
pub fn bits_needed(v: u64) -> u64 {
    u64::from(64 - v.leading_zeros())
}

/// `ceil(log2 n)`, floored at 1 so degenerate runs still grant a word.
pub fn log2_ceil(n: u64) -> u64 {
    if n <= 2 {
        1
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// The law's bit budget for one field on an `n`-node run.
pub fn field_budget_bits(frac_bits: u64, n: u64) -> u64 {
    frac_bits + LAW_C * log2_ceil(n)
}

/// One production `impl … Message for T` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplSite {
    /// The impl target's base name (`Mux2` for `Mux2<M>`), the census
    /// key.
    pub target: String,
    /// File the impl is in.
    pub file: PathBuf,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
}

/// Finds a file's `impl … Message for T` blocks, as `(T, line)`, at the
/// token level. Items behind `#[cfg(test)]` are skipped: test-only
/// messages never cross a production edge.
pub fn message_impls(t: &[Token]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let (mut i, mut test_gated) = (0, false);
    while i < t.len() {
        if t[i].is_punct('#') && t.get(i + 1).is_some_and(|b| b.is_punct('[')) {
            let end = skip_balanced(t, i + 1, '[', ']');
            let attr = || t[i..end].iter().filter_map(Token::ident);
            test_gated |= attr().any(|x| x == "cfg") && attr().any(|x| x == "test");
            i = end;
        } else if test_gated {
            // Skip the gated item: up to its `;`, or over its body.
            while i < t.len() && !t[i].is_punct(';') && !t[i].is_punct('{') {
                i += 1;
            }
            if i < t.len() && t[i].is_punct('{') {
                i = skip_balanced(t, i, '{', '}');
            }
            test_gated = false;
        } else if t[i].ident() == Some("impl") {
            let head_end = (i..t.len())
                .find(|&k| t[k].is_punct('{') || t[k].is_punct(';'))
                .unwrap_or(t.len());
            let head = &t[i..head_end];
            let is_message =
                |k: usize| head[k].ident() == Some("Message") && head[k + 1].ident() == Some("for");
            if let Some(k) = (0..head.len().saturating_sub(1)).find(|&k| is_message(k)) {
                // The target's base name: its last path segment before
                // any generics.
                let target = head[k + 2..]
                    .iter()
                    .take_while(|x| !x.is_punct('<') && x.ident() != Some("where"))
                    .filter_map(Token::ident)
                    .last();
                if let Some(target) = target {
                    out.push((target.to_string(), t[i].line));
                }
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    out
}

/// From an opening delimiter at `t[i]`, returns the index just past its
/// matching close.
fn skip_balanced(t: &[Token], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(i) {
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    t.len()
}

/// What the wire audit concluded.
#[derive(Debug, Default)]
pub struct WireAudit {
    /// All findings, in deterministic order.
    pub findings: Vec<Finding>,
    /// Production impls found in the source.
    pub impls_found: usize,
    /// Census types that resolved to a production impl.
    pub types_joined: usize,
    /// Fields priced under the law.
    pub fields_priced: usize,
    /// Production impls with no census measurement (a `wire-coverage`
    /// finding each).
    pub unmeasured: Vec<String>,
}

/// Joins a wire census recorded on an `n`-node run against the
/// production impl sites and prices every field. An impl that was
/// never measured is itself a finding.
pub fn audit_wire(n: u64, census: &WireCensus, impls: &[ImplSite]) -> WireAudit {
    let mut audit = WireAudit {
        impls_found: impls.len(),
        ..WireAudit::default()
    };

    // Index the impls by target name; the first definition wins.
    let mut by_name: BTreeMap<&str, &ImplSite> = BTreeMap::new();
    for imp in impls {
        by_name.entry(imp.target.as_str()).or_insert(imp);
    }

    let mut measured: Vec<&str> = Vec::new();
    for ty in &census.types {
        let Some(imp) = by_name.get(ty.type_name.as_str()) else {
            audit.findings.push(Finding::new(
                "wire-coverage",
                Path::new(CENSUS_ANCHOR),
                0,
                format!(
                    "census records type `{}` but no production `impl Message` matches it — \
                     the run put unaudited payloads on the wire",
                    ty.type_name
                ),
            ));
            continue;
        };
        audit.types_joined += 1;
        measured.push(imp.target.as_str());

        // A listing that leaves a field out cannot rebuild the message.
        if ty.lossy > 0 {
            audit.findings.push(Finding::new(
                "wire-round-trip",
                &imp.file,
                imp.line,
                format!(
                    "{} of {} `{}` deliveries did not survive decode(encode(m)) — its \
                     wire listing leaves a field out",
                    ty.lossy, ty.messages, ty.type_name
                ),
            ));
        }

        // Price every recorded field under the wire-value law.
        for f in &ty.fields {
            audit.fields_priced += 1;
            let bits = bits_needed(f.max_value);
            let budget = field_budget_bits(u64::from(f.frac_bits), n);
            if bits > budget {
                audit.findings.push(Finding::new(
                    "wire-values",
                    &imp.file,
                    imp.line,
                    format!(
                        "`{}.{}` carried max value {} ({bits} bits) on an n = {n} run — \
                         over the O(log n) budget of {budget} bits ({} frac + {LAW_C}·⌈log2 n⌉); \
                         the field is not a poly(n) quantity",
                        ty.type_name, f.field, f.max_value, f.frac_bits
                    ),
                ));
            }
        }
    }

    for (name, imp) in &by_name {
        if !measured.contains(name) {
            audit.unmeasured.push((*name).to_string());
            audit.findings.push(Finding::new(
                "wire-coverage",
                &imp.file,
                imp.line,
                format!(
                    "`{name}` is a production impl but the certification run never \
                     measured it — extend the certify harness to drive it"
                ),
            ));
        }
    }

    audit
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use drw_congest::WireCensus;

    /// Audits a census of a 16-node run against the impls of one
    /// in-memory source file.
    fn audit(census: &WireCensus, src: &str) -> WireAudit {
        let file = PathBuf::from("mem.rs");
        let impls: Vec<ImplSite> = message_impls(&lex(src))
            .into_iter()
            .map(|(target, line)| ImplSite {
                target,
                file: file.clone(),
                line,
            })
            .collect();
        audit_wire(16, census, &impls)
    }

    const ONE_IMPL: &str = "struct M(u64);\nimpl Message for M {}";

    #[test]
    fn bit_arithmetic() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
        assert_eq!(field_budget_bits(40, 16), 48);
    }

    #[test]
    fn the_finder_keys_on_the_target_and_skips_test_items() {
        let src = "impl<M: Message> Message for Mux2<M> {}\n\
                   impl drw_congest::Message for crate::Tok where Tok: Clone {}\n\
                   impl Display for Bar { fn fmt(&self) {} }\n\
                   #[cfg(test)]\nmod tests { impl Message for T {} }\n\
                   #[cfg(test)]\nimpl Message for U {}\n\
                   impl Message for Real {}";
        let found = message_impls(&lex(src));
        assert_eq!(
            found,
            [("Mux2".into(), 1), ("Tok".into(), 2), ("Real".into(), 8)]
        );
    }

    #[test]
    fn lawful_fields_pass() {
        let mut c = WireCensus::default();
        c.record("M", 1).field("x", 200); // 8 bits <= 2*4 on n=16
        let a = audit(&c, ONE_IMPL);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!((a.impls_found, a.types_joined, a.fields_priced), (1, 1, 1));
    }

    #[test]
    fn oversized_magnitude_is_flagged_at_the_impl() {
        let mut c = WireCensus::default();
        c.record("M", 1).field("x", 1 << 20); // 21 bits > 8
        let a = audit(&c, ONE_IMPL);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "wire-values");
        assert_eq!(a.findings[0].line, 2);
    }

    #[test]
    fn frac_bits_price_fixed_point_precision() {
        let mut c = WireCensus::default();
        c.record("M", 2).field_fixed("mass", 1 << 40, 40); // 41 <= 48
        let a = audit(&c, ONE_IMPL);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn a_lossy_listing_is_flagged_at_the_impl() {
        let mut c = WireCensus::default();
        c.record("M", 1).field("x", 1).lossy = 1;
        let a = audit(&c, ONE_IMPL);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(
            (a.findings[0].rule.as_str(), a.findings[0].line),
            ("wire-round-trip", 2)
        );
    }

    #[test]
    fn unknown_census_type_is_a_coverage_finding() {
        let mut c = WireCensus::default();
        c.record("M", 1).field("x", 1);
        c.record("Ghost", 1).field("x", 1);
        let a = audit(&c, ONE_IMPL);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "wire-coverage");
    }

    #[test]
    fn an_unmeasured_impl_is_a_coverage_finding() {
        let a = audit(&WireCensus::default(), ONE_IMPL);
        assert_eq!(a.unmeasured, ["M"]);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(
            (a.findings[0].rule.as_str(), a.findings[0].line),
            ("wire-coverage", 2)
        );
    }
}
