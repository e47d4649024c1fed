//! Pass 1 — CONGEST word accounting.
//!
//! Every [`drw_congest::Message`] impl declares its wire size in
//! `O(log n)`-bit words via `size_words` (default: 1). The engine
//! enforces the declared size at runtime; this pass closes the other
//! half of the loop and checks the *declaration* against the payload's
//! actual shape, so a compound message cannot silently ride the 1-word
//! default.
//!
//! ## Cost model
//!
//! One word is `O(log n)` bits; the standard CONGEST convention (and
//! this repo's, see DESIGN.md) is that any node id, count, position or
//! fixed-point value of `poly(n)` magnitude fits one word. Concretely,
//! per field:
//!
//! * `bool` and `Option<bool>` cost **0** words — a constant number of
//!   flag bits rides along with any word-sized payload;
//! * sub-word integers pack: `u8` counts 8 bits, `u16` 16, and packed
//!   bits round up at 32 per word (`Mux2`'s `(u16, u16)` pair = 1 word);
//! * every other scalar (`u32`/`u64`/`usize`/`f64`/ids/...) costs one
//!   word; `Option<T>` costs the same as `T`;
//! * tuples, arrays and nested payload structs cost the sum of their
//!   parts; enums cost per-variant;
//! * `Vec`/`String`/... are **dynamic**: `size_words` must be computed,
//!   a constant declaration is a finding;
//! * a generic `M: Message` field means `size_words` must *delegate*
//!   (its body must call `size_words` on the inner payload).
//!
//! Over-declaring is always legal — the budget is an upper bound, and
//! several protocols round up for slack. Under-declaring is the defect
//! this pass exists to catch.

use crate::lexer::num_value;
use crate::scan::{EnumDef, MsgImpl, Scan, SizeDecl, StructDef, Ty};
use crate::Finding;
use std::collections::BTreeMap;

/// Bits per modelled word. The model word is `O(log n)` bits; every
/// full-word scalar counts exactly one word regardless of its Rust
/// width (a `u64` holding a `poly(n)` quantity is still one word).
pub const WORD_BITS: u64 = 32;

/// Cost of a type under the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// A statically-sized payload of this many packed bits.
    Bits(u64),
    /// Dynamically sized (`Vec`, `String`, ...).
    Dynamic,
    /// Contains a generic `Message` payload: the impl must delegate.
    Generic,
}

impl Cost {
    fn add(self, other: Cost) -> Cost {
        match (self, other) {
            (Cost::Dynamic, _) | (_, Cost::Dynamic) => Cost::Dynamic,
            (Cost::Generic, _) | (_, Cost::Generic) => Cost::Generic,
            (Cost::Bits(a), Cost::Bits(b)) => Cost::Bits(a + b),
        }
    }

    /// Minimum legal `size_words` declaration for this cost.
    fn min_words(self) -> Option<u64> {
        match self {
            Cost::Bits(b) => Some(b.div_ceil(WORD_BITS)),
            _ => None,
        }
    }
}

/// All definitions visible to the auditor, indexed by name.
pub struct Defs {
    structs: BTreeMap<String, StructDef>,
    enums: BTreeMap<String, EnumDef>,
    aliases: BTreeMap<String, Ty>,
}

impl Defs {
    /// Merges the per-file scans into one workspace-wide lookup table.
    pub fn collect(scans: &[(std::path::PathBuf, Scan)]) -> Defs {
        let mut d = Defs {
            structs: BTreeMap::new(),
            enums: BTreeMap::new(),
            aliases: BTreeMap::new(),
        };
        for (_, s) in scans {
            for st in &s.structs {
                d.structs
                    .entry(st.name.clone())
                    .or_insert_with(|| st.clone());
            }
            for en in &s.enums {
                d.enums.entry(en.name.clone()).or_insert_with(|| en.clone());
            }
            for (name, ty) in &s.aliases {
                d.aliases.entry(name.clone()).or_insert_with(|| ty.clone());
            }
        }
        d
    }

    /// Cost of a flattened type. `generics` are the type parameters in
    /// scope (a hit means the payload is generic). `depth` bounds
    /// recursion through aliases and nested definitions.
    pub fn type_cost(&self, ty: &[String], generics: &[String], depth: usize) -> Cost {
        if depth > 8 || ty.is_empty() {
            return Cost::Bits(WORD_BITS); // be lenient: one word
        }
        let mut i = 0usize;
        // Strip references and mutability.
        while i < ty.len() && (ty[i] == "&" || ty[i] == "mut") {
            i += 1;
        }
        if i >= ty.len() {
            return Cost::Bits(WORD_BITS);
        }
        match ty[i].as_str() {
            "(" => {
                // Tuple: sum the top-level elements.
                let inner = balanced_inner(&ty[i..], "(", ")");
                let mut total = Cost::Bits(0);
                for elem in split_top(inner) {
                    total = total.add(self.type_cost(elem, generics, depth + 1));
                }
                total
            }
            "[" => {
                // `[T; N]`: N × cost(T); unknown length is dynamic.
                let inner = balanced_inner(&ty[i..], "[", "]");
                let parts: Vec<&[String]> = split_on_semi(inner);
                if parts.len() == 2 {
                    if let Some(n) = parts[1].first().and_then(|s| num_value(s)) {
                        let elem = self.type_cost(parts[0], generics, depth + 1);
                        return match elem {
                            Cost::Bits(b) => Cost::Bits(b * n),
                            other => other,
                        };
                    }
                }
                Cost::Dynamic
            }
            _ => {
                // Path type: find the base name and its generic args.
                let (base, args) = path_base_and_args(&ty[i..]);
                match base {
                    "bool" => Cost::Bits(0),
                    "u8" | "i8" => Cost::Bits(8),
                    "u16" | "i16" => Cost::Bits(16),
                    "u32" | "i32" | "u64" | "i64" | "u128" | "i128" | "usize" | "isize" | "f32"
                    | "f64" | "char" => Cost::Bits(WORD_BITS),
                    "PhantomData" => Cost::Bits(0),
                    // Fixed-point precision declaration: a static model
                    // annotation both endpoints already know, not wire
                    // data (see `drw_congest::FracBits`).
                    "FracBits" => Cost::Bits(0),
                    "Vec" | "String" | "str" | "VecDeque" | "BTreeMap" | "BTreeSet" | "HashMap"
                    | "HashSet" => Cost::Dynamic,
                    "Option" | "Box" | "Rc" | "Arc" => match args {
                        Some(a) => self.type_cost(a, generics, depth + 1),
                        None => Cost::Bits(WORD_BITS),
                    },
                    name if generics.iter().any(|g| g == name) => Cost::Generic,
                    name => {
                        if let Some(alias) = self.aliases.get(name) {
                            let alias = alias.clone();
                            return self.type_cost(&alias, generics, depth + 1);
                        }
                        if let Some(st) = self.structs.get(name) {
                            let st = st.clone();
                            let mut total = Cost::Bits(0);
                            for f in &st.fields {
                                total = total.add(self.type_cost(f, &st.generics, depth + 1));
                            }
                            return total;
                        }
                        if let Some(en) = self.enums.get(name) {
                            let en = en.clone();
                            return self
                                .enum_variant_costs(&en, depth + 1)
                                .into_iter()
                                .map(|(_, c)| c)
                                .fold(Cost::Bits(0), |acc, c| match (acc, c) {
                                    (Cost::Bits(a), Cost::Bits(b)) => Cost::Bits(a.max(b)),
                                    (x, Cost::Bits(_)) | (Cost::Bits(_), x) => x,
                                    (x, _) => x,
                                });
                        }
                        // Unknown foreign type: assume one word. The
                        // convention holds for every id/count newtype;
                        // compound foreign payloads belong in the
                        // workspace where this pass can see them.
                        Cost::Bits(WORD_BITS)
                    }
                }
            }
        }
    }

    /// Per-variant costs of an enum.
    pub fn enum_variant_costs(&self, en: &EnumDef, depth: usize) -> Vec<(String, Cost)> {
        en.variants
            .iter()
            .map(|(name, fields)| {
                let mut total = Cost::Bits(0);
                for f in fields {
                    total = total.add(self.type_cost(f, &en.generics, depth));
                }
                (name.clone(), total)
            })
            .collect()
    }
}

/// The tokens strictly inside the balanced `open`...`close` pair that
/// starts at `ty[0]`.
fn balanced_inner<'a>(ty: &'a [String], open: &str, close: &str) -> &'a [String] {
    let mut depth = 0i64;
    for (j, s) in ty.iter().enumerate() {
        if s == open {
            depth += 1;
        } else if s == close {
            depth -= 1;
            if depth == 0 {
                return &ty[1..j];
            }
        }
    }
    &ty[1..]
}

/// Splits on top-level commas.
fn split_top(ty: &[String]) -> Vec<&[String]> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    let mut prev_dash = false;
    for (j, s) in ty.iter().enumerate() {
        match s.as_str() {
            "<" | "(" | "[" | "{" => depth += 1,
            ">" if prev_dash => {}
            ">" | ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                if start < j {
                    out.push(&ty[start..j]);
                }
                start = j + 1;
            }
            _ => {}
        }
        prev_dash = s == "-";
    }
    if start < ty.len() {
        out.push(&ty[start..]);
    }
    out
}

/// Splits `T ; N` on the top-level semicolon.
fn split_on_semi(ty: &[String]) -> Vec<&[String]> {
    let mut depth = 0i64;
    for (j, s) in ty.iter().enumerate() {
        match s.as_str() {
            "<" | "(" | "[" | "{" => depth += 1,
            ">" | ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return vec![&ty[..j], &ty[j + 1..]],
            _ => {}
        }
    }
    vec![ty]
}

/// The base name of a path type and its generic argument tokens:
/// `drw_congest::Mux2<M>` → (`"Mux2"`, Some(`["M"]`)).
fn path_base_and_args(ty: &[String]) -> (&str, Option<&[String]>) {
    let mut base = "";
    let mut j = 0usize;
    while j < ty.len() {
        let s = &ty[j];
        if s == "<" {
            let inner = balanced_inner(&ty[j..], "<", ">");
            return (base, Some(inner));
        }
        if s == ":" || s == "dyn" || s == "impl" {
            j += 1;
            continue;
        }
        if s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            base = s;
        }
        j += 1;
    }
    (base, None)
}

/// Audits one `Message` impl against the definitions. Returns findings;
/// an empty vector means the declaration is consistent.
pub fn audit_impl(imp: &MsgImpl, defs: &Defs, file: &std::path::Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |line: usize, msg: String| {
        out.push(Finding::new("congest-words", file, line, msg));
    };

    // Resolve the payload shape behind the target name.
    if let Some(en) = defs.enums.get(&imp.target) {
        let en = en.clone();
        audit_enum(imp, &en, defs, &mut finding);
        return out;
    }
    let cost = if let Some(st) = defs.structs.get(&imp.target) {
        let st = st.clone();
        let mut total = Cost::Bits(0);
        for f in &st.fields {
            total = total.add(defs.type_cost(f, &st.generics, 0));
        }
        total
    } else if defs.aliases.contains_key(&imp.target)
        || imp.target_ty.first().map(String::as_str) == Some("(")
    {
        defs.type_cost(&imp.target_ty, &[], 0)
    } else {
        finding(
            imp.line,
            format!(
                "payload type `{}` not found in the workspace — the auditor cannot \
                 check its declared size_words",
                imp.target
            ),
        );
        return out;
    };

    match (&imp.decl, cost) {
        (SizeDecl::Default, Cost::Bits(b)) => {
            let min = b.div_ceil(WORD_BITS);
            if min > 1 {
                finding(
                    imp.line,
                    format!(
                        "`{}` inherits the 1-word default but its payload needs at least \
                         {min} words — declare `size_words`",
                        imp.target
                    ),
                );
            }
        }
        (SizeDecl::Default, Cost::Dynamic) => finding(
            imp.line,
            format!(
                "`{}` has a dynamically sized payload but inherits the 1-word default — \
                 `size_words` must be computed from the payload",
                imp.target
            ),
        ),
        (SizeDecl::Default, Cost::Generic) => finding(
            imp.line,
            format!(
                "`{}` carries a generic inner Message but inherits the 1-word default — \
                 `size_words` must delegate to the inner payload",
                imp.target
            ),
        ),
        (SizeDecl::Literal(n), Cost::Bits(b)) => {
            let min = b.div_ceil(WORD_BITS);
            if *n < min {
                finding(
                    imp.line,
                    format!(
                        "`{}` declares size_words = {n} but its payload needs at least \
                         {min} words",
                        imp.target
                    ),
                );
            }
        }
        (SizeDecl::Literal(n), Cost::Dynamic) => finding(
            imp.line,
            format!(
                "`{}` has a dynamically sized payload but declares the constant \
                 size_words = {n}",
                imp.target
            ),
        ),
        (SizeDecl::Literal(n), Cost::Generic) => finding(
            imp.line,
            format!(
                "`{}` carries a generic inner Message but declares the constant \
                 size_words = {n} — it must delegate via `.size_words()`",
                imp.target
            ),
        ),
        (
            SizeDecl::Computed {
                mentions_size_words,
            },
            Cost::Generic,
        ) => {
            if !mentions_size_words {
                finding(
                    imp.line,
                    format!(
                        "`{}` carries a generic inner Message but its size_words body \
                         never calls `.size_words()` on it",
                        imp.target
                    ),
                );
            }
        }
        // A computed body over static or dynamic payloads is the
        // author taking responsibility; the runtime word recorder
        // still bounds it.
        (SizeDecl::Computed { .. }, _) => {}
        // A match body over a struct payload: treat as computed.
        (SizeDecl::Match(_), _) => {}
    }
    out
}

fn audit_enum(imp: &MsgImpl, en: &EnumDef, defs: &Defs, finding: &mut impl FnMut(usize, String)) {
    let costs = defs.enum_variant_costs(en, 0);
    let worst_static: u64 = costs
        .iter()
        .filter_map(|(_, c)| c.min_words())
        .max()
        .unwrap_or(0);
    let any_dynamic = costs.iter().any(|(_, c)| *c == Cost::Dynamic);
    let any_generic = costs.iter().any(|(_, c)| *c == Cost::Generic);

    let flat_check = |n: u64, finding: &mut dyn FnMut(usize, String)| {
        if any_dynamic {
            finding(
                imp.line,
                format!(
                    "enum `{}` has a dynamically sized variant but declares the \
                     constant size_words = {n}",
                    imp.target
                ),
            );
        } else if any_generic {
            finding(
                imp.line,
                format!(
                    "enum `{}` has a generic Message variant but declares the \
                     constant size_words = {n}",
                    imp.target
                ),
            );
        } else if n < worst_static {
            finding(
                imp.line,
                format!(
                    "enum `{}` declares size_words = {n} but its largest variant \
                     needs {worst_static} words",
                    imp.target
                ),
            );
        }
    };

    match &imp.decl {
        SizeDecl::Default => flat_check(1, finding),
        SizeDecl::Literal(n) => flat_check(*n, finding),
        SizeDecl::Match(arms) => {
            let named: Vec<&str> = arms
                .iter()
                .flat_map(|(vs, _)| vs.iter())
                .filter(|v| !v.is_empty())
                .map(String::as_str)
                .collect();
            for (variants, value) in arms {
                let Some(n) = value else { continue };
                for v in variants {
                    if v.is_empty() {
                        // Wildcard arm: must cover the worst variant not
                        // matched by an explicit arm.
                        let rest_max = costs
                            .iter()
                            .filter(|(name, _)| !named.contains(&name.as_str()))
                            .filter_map(|(_, c)| c.min_words())
                            .max()
                            .unwrap_or(0);
                        if *n < rest_max {
                            finding(
                                imp.line,
                                format!(
                                    "enum `{}`: wildcard size_words arm declares {n} \
                                     words but an uncovered variant needs {rest_max}",
                                    imp.target
                                ),
                            );
                        }
                        continue;
                    }
                    match costs.iter().find(|(name, _)| name == v) {
                        Some((_, Cost::Bits(b))) => {
                            let min = b.div_ceil(WORD_BITS);
                            if *n < min {
                                finding(
                                    imp.line,
                                    format!(
                                        "enum `{}`: variant `{v}` declares {n} words in \
                                         size_words but needs at least {min}",
                                        imp.target
                                    ),
                                );
                            }
                        }
                        Some((_, Cost::Dynamic)) => finding(
                            imp.line,
                            format!(
                                "enum `{}`: variant `{v}` is dynamically sized but its \
                                 size_words arm is the constant {n}",
                                imp.target
                            ),
                        ),
                        Some((_, Cost::Generic)) => finding(
                            imp.line,
                            format!(
                                "enum `{}`: variant `{v}` carries a generic Message but \
                                 its size_words arm is the constant {n}",
                                imp.target
                            ),
                        ),
                        None => {} // pattern the scanner mis-read: stay lenient
                    }
                }
            }
        }
        SizeDecl::Computed { .. } => {
            if any_generic {
                // Delegation requirement applies per the struct path.
                // (No production enum carries a generic payload today.)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;
    use std::path::PathBuf;

    fn audit_src(src: &str) -> (usize, Vec<Finding>) {
        let scans = vec![(PathBuf::from("mem.rs"), scan(&lex(src)))];
        let defs = Defs::collect(&scans);
        let mut findings = Vec::new();
        let mut n = 0usize;
        for (path, s) in &scans {
            for imp in &s.impls {
                n += 1;
                findings.extend(audit_impl(imp, &defs, path));
            }
        }
        (n, findings)
    }

    #[test]
    fn one_word_default_is_fine() {
        let (n, f) = audit_src("struct M(u64);\nimpl Message for M {}");
        assert_eq!((n, f.len()), (1, 0));
    }

    #[test]
    fn compound_default_is_flagged() {
        let (_, f) = audit_src("struct M { a: u64, b: u64 }\nimpl Message for M {}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("1-word default"));
    }

    #[test]
    fn under_declared_literal_is_flagged() {
        let (_, f) = audit_src(
            "struct M { a: u64, b: u64, c: u32 }\n\
             impl Message for M { fn size_words(&self) -> usize { 2 } }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("at least 3"));
    }

    #[test]
    fn over_declared_is_legal() {
        let (_, f) = audit_src(
            "struct M { a: u32 }\n\
             impl Message for M { fn size_words(&self) -> usize { 4 } }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn subword_fields_pack() {
        let (_, f) = audit_src(
            "struct M { req: u16, lane: u16, x: u8 }\n\
             impl Message for M { fn size_words(&self) -> usize { 2 } }",
        );
        assert!(f.is_empty(), "40 bits pack into 2 words: {f:?}");
        let (_, f) = audit_src("struct M { req: u16, lane: u16 }\nimpl Message for M {}");
        assert!(f.is_empty(), "two u16 pack into the default word: {f:?}");
    }

    #[test]
    fn bools_are_free() {
        let (_, f) = audit_src(
            "struct M { lo: u64, hi: u64, flag: bool, opt: Option<bool> }\n\
             impl Message for M { fn size_words(&self) -> usize { 2 } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn vec_payload_needs_dynamic_size() {
        let (_, f) = audit_src("struct M(Vec<u64>);\nimpl Message for M {}");
        assert_eq!(f.len(), 1);
        let (_, f) = audit_src(
            "struct M(Vec<u64>);\nimpl Message for M { fn size_words(&self) -> usize { 3 } }",
        );
        assert_eq!(f.len(), 1);
        let (_, f) = audit_src(
            "struct M(Vec<u64>);\n\
             impl Message for M { fn size_words(&self) -> usize { self.0.len() } }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn generic_payload_must_delegate() {
        let good = "struct Mux2<M> { lane: u32, msg: M }\n\
             impl<M: Message> Message for Mux2<M> {\n\
               fn size_words(&self) -> usize { 1 + self.msg.size_words() }\n\
             }";
        let (_, f) = audit_src(good);
        assert!(f.is_empty(), "{f:?}");
        let bad = "struct Mux2<M> { lane: u32, msg: M }\n\
             impl<M: Message> Message for Mux2<M> {\n\
               fn size_words(&self) -> usize { 2 }\n\
             }";
        let (_, f) = audit_src(bad);
        assert_eq!(f.len(), 1);
        let silent = "struct Mux2<M> { lane: u32, msg: M }\n\
             impl<M: Message> Message for Mux2<M> {}";
        let (_, f) = audit_src(silent);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn alias_tuple_resolves() {
        let (_, f) = audit_src(
            "pub type Item = (u64, u64);\nstruct M(pub Item);\n\
             impl Message for M { fn size_words(&self) -> usize { 2 } }",
        );
        assert!(f.is_empty(), "{f:?}");
        let (_, f) = audit_src(
            "pub type Item = (u64, u64);\nstruct M(pub Item);\n\
             impl Message for M { fn size_words(&self) -> usize { 1 } }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn enum_match_arms_checked_per_variant() {
        let src = "enum E { A { x: u64, y: u64 }, B { z: u32 }, C }\n\
             impl Message for E { fn size_words(&self) -> usize {\n\
               match self { E::A { .. } => 2, E::B { .. } => 1, E::C => 1 }\n\
             } }";
        let (_, f) = audit_src(src);
        assert!(f.is_empty(), "{f:?}");
        let bad = "enum E { A { x: u64, y: u64 }, B { z: u32 } }\n\
             impl Message for E { fn size_words(&self) -> usize {\n\
               match self { E::A { .. } => 1, E::B { .. } => 1 }\n\
             } }";
        let (_, f) = audit_src(bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("variant `A`"));
    }

    #[test]
    fn enum_flat_literal_covers_worst_variant() {
        let (_, f) = audit_src(
            "enum E { A { x: u64, y: u64 }, B }\n\
             impl Message for E { fn size_words(&self) -> usize { 2 } }",
        );
        assert!(f.is_empty());
        let (_, f) = audit_src(
            "enum E { A { x: u64, y: u64, z: u64 }, B }\n\
             impl Message for E { fn size_words(&self) -> usize { 2 } }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wildcard_arm_covers_the_rest() {
        let (_, f) = audit_src(
            "enum E { A { x: u64, y: u64 }, B { z: u64 }, C }\n\
             impl Message for E { fn size_words(&self) -> usize {\n\
               match self { E::A { .. } => 2, _ => 1 }\n\
             } }",
        );
        assert!(f.is_empty(), "{f:?}");
        let (_, f) = audit_src(
            "enum E { A { x: u64 }, B { y: u64, z: u64 } }\n\
             impl Message for E { fn size_words(&self) -> usize {\n\
               match self { E::A { .. } => 1, _ => 1 }\n\
             } }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn missing_payload_definition_is_a_finding() {
        let (_, f) = audit_src("impl Message for Phantom {}");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not found"));
    }
}
