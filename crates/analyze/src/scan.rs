//! Item-level scanner: structs, enums, type aliases and `Message`
//! impls, recovered from the raw token stream.
//!
//! This is deliberately not a full Rust parser. It walks the token
//! stream linearly, descends into modules, skips the bodies of
//! functions, traits and non-`Message` impls, and skips any item
//! gated behind `#[cfg(test)]` (test-only messages are free to break
//! the word budget — they never cross a modelled edge in production
//! runs). Where the grammar gets ambiguous the scanner stays *lenient*:
//! a shape it cannot understand is dropped, never turned into a
//! finding, so imprecision here can hide a defect but not invent one.

use crate::lexer::{num_value, Lexed, TokKind, Token};

/// A type, flattened to its significant tokens (lifetimes dropped,
/// numeric literals kept raw for array lengths).
pub type Ty = Vec<String>;

/// A struct definition with its payload-relevant shape.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Generic type parameter names (lifetimes excluded).
    pub generics: Vec<String>,
    /// Field types, named and tuple fields alike.
    pub fields: Vec<Ty>,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
}

/// An enum definition: variant names with their field types.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Generic type parameter names (lifetimes excluded).
    pub generics: Vec<String>,
    /// Variant names with their field types.
    pub variants: Vec<(String, Vec<Ty>)>,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
}

/// How an `impl Message for T` declares its size.
#[derive(Debug, Clone)]
pub enum SizeDecl {
    /// No `fn size_words` — the trait's 1-word default applies.
    Default,
    /// A bare literal body: `{ N }`.
    Literal(u64),
    /// A `match self { ... }` body; each arm lists the variant names it
    /// covers (`""` marks a wildcard `_` arm) and its literal value, if
    /// the arm's value is a bare literal.
    Match(Vec<(Vec<String>, Option<u64>)>),
    /// Anything else (computed); records whether the body mentions
    /// `size_words`, i.e. delegates to an inner payload.
    Computed {
        /// True iff the body calls `size_words` (delegation).
        mentions_size_words: bool,
    },
}

/// One `impl Message for T` found in production code.
#[derive(Debug, Clone)]
pub struct MsgImpl {
    /// Base name of the target type (`Mux2` for `Mux2<M>`), or the whole
    /// flattened type when the target has no base name (e.g. a tuple).
    pub target: String,
    /// Target type tokens, for targets that are not plain names.
    pub target_ty: Ty,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// The declared wire size.
    pub decl: SizeDecl,
}

/// Everything the item scanner recovered from one file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Struct definitions found.
    pub structs: Vec<StructDef>,
    /// Enum definitions found.
    pub enums: Vec<EnumDef>,
    /// Type aliases found (name, aliased type).
    pub aliases: Vec<(String, Ty)>,
    /// `Message` impls found.
    pub impls: Vec<MsgImpl>,
}

/// Scans a lexed file.
pub fn scan(lexed: &Lexed) -> Scan {
    let mut out = Scan::default();
    let t = &lexed.tokens;
    let mut i = 0usize;
    // True while the item about to start is gated behind #[cfg(test)].
    let mut pending_test = false;

    while i < t.len() {
        match &t[i].kind {
            TokKind::Punct('#') => {
                let (attr_end, is_cfg_test) = read_attr(t, i);
                pending_test |= is_cfg_test;
                i = attr_end;
            }
            TokKind::Ident(kw) => match kw.as_str() {
                "mod" => {
                    // `mod name;` or `mod name { ... }` — descend unless
                    // test-gated.
                    let mut j = i + 1;
                    while j < t.len() && !t[j].is_punct(';') && !t[j].is_punct('{') {
                        j += 1;
                    }
                    if j < t.len() && t[j].is_punct('{') {
                        if pending_test {
                            i = skip_balanced(t, j, '{', '}');
                        } else {
                            i = j + 1; // descend; the stray `}` is ignored later
                        }
                    } else {
                        i = j + 1;
                    }
                    pending_test = false;
                }
                "struct" => {
                    let j = if pending_test {
                        skip_item(t, i)
                    } else {
                        parse_struct(t, i, &mut out)
                    };
                    pending_test = false;
                    i = j;
                }
                "enum" => {
                    let j = if pending_test {
                        skip_item(t, i)
                    } else {
                        parse_enum(t, i, &mut out)
                    };
                    pending_test = false;
                    i = j;
                }
                "type" => {
                    let j = if pending_test {
                        skip_to_semi(t, i)
                    } else {
                        parse_alias(t, i, &mut out)
                    };
                    pending_test = false;
                    i = j;
                }
                "trait" | "fn" | "macro_rules" => {
                    // Skip the body wholesale. `fn` declarations inside
                    // `extern` blocks end with `;` instead.
                    let mut j = i + 1;
                    while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
                        j += 1;
                    }
                    i = if j < t.len() && t[j].is_punct('{') {
                        skip_balanced(t, j, '{', '}')
                    } else {
                        j + 1
                    };
                    pending_test = false;
                }
                "impl" => {
                    let j = if pending_test {
                        skip_item(t, i)
                    } else {
                        parse_impl(t, i, &mut out)
                    };
                    pending_test = false;
                    i = j;
                }
                "use" | "static" | "const" | "extern" => {
                    i = skip_to_semi(t, i);
                    pending_test = false;
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
    out
}

/// Reads an attribute starting at the `#`; returns (index past it,
/// whether it is `#[cfg(test)]`-like). Inner attributes `#![...]` are
/// consumed but never test-gate anything.
fn read_attr(t: &[Token], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    let inner = j < t.len() && t[j].is_punct('!');
    if inner {
        j += 1;
    }
    if j >= t.len() || !t[j].is_punct('[') {
        return (i + 1, false);
    }
    let end = skip_balanced(t, j, '[', ']');
    let mut saw_cfg = false;
    let mut saw_test = false;
    for tok in &t[j..end] {
        match tok.ident() {
            Some("cfg") => saw_cfg = true,
            Some("test") => saw_test = true,
            _ => {}
        }
    }
    (end, !inner && saw_cfg && saw_test)
}

/// From an opening delimiter at `t[i]`, returns the index just past its
/// matching close.
fn skip_balanced(t: &[Token], i: usize, open: char, close: char) -> usize {
    debug_assert!(t[i].is_punct(open));
    let mut depth = 0usize;
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct(open) {
            depth += 1;
        } else if t[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Skips an item that ends at `;` or at a balanced `{}` body, whichever
/// comes first.
fn skip_item(t: &[Token], i: usize) -> usize {
    let mut j = i;
    while j < t.len() {
        if t[j].is_punct(';') {
            return j + 1;
        }
        if t[j].is_punct('{') {
            return skip_balanced(t, j, '{', '}');
        }
        if t[j].is_punct('(') {
            j = skip_balanced(t, j, '(', ')');
            continue;
        }
        j += 1;
    }
    t.len()
}

/// Skips to just past the next `;` at delimiter depth 0.
fn skip_to_semi(t: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i64;
    while j < t.len() {
        match &t[j].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    t.len()
}

/// Flattens a token to its significant text, if any.
fn flat(tok: &Token) -> Option<String> {
    match &tok.kind {
        TokKind::Ident(s) => Some(s.clone()),
        TokKind::Num(s) => Some(s.clone()),
        TokKind::Punct(c) => Some(c.to_string()),
        TokKind::Lifetime | TokKind::Lit => None,
    }
}

/// Collects type tokens starting at `i` until one of `stops` appears at
/// delimiter depth 0 (angle brackets included). `->` arrows are kept
/// without closing an angle. Returns (type tokens, index of the stop).
fn read_ty(t: &[Token], i: usize, stops: &[char]) -> (Ty, usize) {
    let mut ty = Vec::new();
    let mut depth = 0i64;
    let mut j = i;
    let mut prev_dash = false;
    while j < t.len() {
        match &t[j].kind {
            TokKind::Punct(c) => {
                let c = *c;
                if depth == 0 && stops.contains(&c) {
                    return (ty, j);
                }
                match c {
                    '<' | '(' | '[' | '{' => depth += 1,
                    '>' if !prev_dash => depth -= 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
                if depth < 0 {
                    // A closing delimiter of the enclosing construct:
                    // stop before it.
                    return (ty, j);
                }
                prev_dash = c == '-';
                if let Some(s) = flat(&t[j]) {
                    ty.push(s);
                }
            }
            _ => {
                prev_dash = false;
                if let Some(s) = flat(&t[j]) {
                    ty.push(s);
                }
            }
        }
        j += 1;
    }
    (ty, t.len())
}

/// Parses generic parameters `<...>` at `i` (if present), returning the
/// type parameter names and the index past the closing `>`.
fn read_generics(t: &[Token], i: usize) -> (Vec<String>, usize) {
    if i >= t.len() || !t[i].is_punct('<') {
        return (Vec::new(), i);
    }
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut j = i;
    // True at positions where a fresh parameter may start.
    let mut at_param = false;
    while j < t.len() {
        match &t[j].kind {
            TokKind::Punct('<') => {
                depth += 1;
                at_param = depth == 1;
            }
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return (params, j + 1);
                }
            }
            TokKind::Punct(',') => at_param = depth == 1,
            TokKind::Ident(name) if at_param && depth == 1 => {
                if name == "const" {
                    // `const N: usize` — take the following ident.
                    if let Some(n) = t.get(j + 1).and_then(|x| x.ident()) {
                        params.push(n.to_string());
                    }
                    j += 1;
                } else {
                    params.push(name.clone());
                }
                at_param = false;
            }
            _ => {}
        }
        j += 1;
    }
    (params, t.len())
}

/// The last identifier of `ty` at depth 0 before any depth-0 `<`; the
/// base name of a path type like `drw_congest::Mux2<M>`.
fn base_name(ty: &[String]) -> Option<String> {
    let mut depth = 0i64;
    let mut last = None;
    let mut prev_dash = false;
    for s in ty {
        match s.as_str() {
            "<" if depth == 0 => break,
            "<" | "(" | "[" | "{" => depth += 1,
            ">" if prev_dash => {}
            ">" | ")" | "]" | "}" => depth -= 1,
            _ => {
                if depth == 0
                    && s.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                {
                    last = Some(s.clone());
                }
            }
        }
        prev_dash = s == "-";
    }
    last
}

fn parse_struct(t: &[Token], i: usize, out: &mut Scan) -> usize {
    let line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident()) else {
        return i + 1;
    };
    let name = name.to_string();
    let (generics, mut j) = read_generics(t, i + 2);
    // Skip a where clause, if any, up to the body or terminator.
    while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct('(') && !t[j].is_punct(';') {
        j += 1;
    }
    let mut fields = Vec::new();
    if j < t.len() && t[j].is_punct('(') {
        // Tuple struct.
        let end = skip_balanced(t, j, '(', ')');
        let mut k = j + 1;
        while k < end - 1 {
            k = skip_field_prefix(t, k);
            let (ty, stop) = read_ty(t, k, &[',']);
            if !ty.is_empty() {
                fields.push(ty);
            }
            k = stop.min(end - 1) + 1;
        }
        out.structs.push(StructDef {
            name,
            generics,
            fields,
            line,
        });
        return skip_to_semi(t, end);
    }
    if j < t.len() && t[j].is_punct('{') {
        let end = skip_balanced(t, j, '{', '}');
        let mut k = j + 1;
        while k < end - 1 {
            k = skip_field_prefix(t, k);
            if k >= end - 1 {
                break;
            }
            // field name, then `:`, then the type.
            if t[k].ident().is_some() && t.get(k + 1).is_some_and(|x| x.is_punct(':')) {
                let (ty, stop) = read_ty(t, k + 2, &[',']);
                if !ty.is_empty() {
                    fields.push(ty);
                }
                k = stop.min(end - 1) + 1;
            } else {
                k += 1;
            }
        }
        out.structs.push(StructDef {
            name,
            generics,
            fields,
            line,
        });
        return end;
    }
    // Unit struct.
    out.structs.push(StructDef {
        name,
        generics,
        fields,
        line,
    });
    if j < t.len() {
        j += 1;
    }
    j
}

/// Skips attributes and visibility (`#[...]`, `pub`, `pub(crate)`)
/// ahead of a field.
fn skip_field_prefix(t: &[Token], mut k: usize) -> usize {
    loop {
        if k < t.len() && t[k].is_punct('#') {
            let (end, _) = read_attr(t, k);
            k = end;
            continue;
        }
        if t.get(k).and_then(|x| x.ident()) == Some("pub") {
            k += 1;
            if k < t.len() && t[k].is_punct('(') {
                k = skip_balanced(t, k, '(', ')');
            }
            continue;
        }
        return k;
    }
}

fn parse_enum(t: &[Token], i: usize, out: &mut Scan) -> usize {
    let line = t[i].line;
    let Some(name) = t.get(i + 1).and_then(|x| x.ident()) else {
        return i + 1;
    };
    let name = name.to_string();
    let (generics, mut j) = read_generics(t, i + 2);
    while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
        j += 1;
    }
    if j >= t.len() || !t[j].is_punct('{') {
        return j + 1;
    }
    let end = skip_balanced(t, j, '{', '}');
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < end - 1 {
        k = skip_field_prefix(t, k);
        if k >= end - 1 {
            break;
        }
        let Some(vname) = t[k].ident() else {
            k += 1;
            continue;
        };
        let vname = vname.to_string();
        k += 1;
        let mut fields = Vec::new();
        if k < end && t[k].is_punct('(') {
            let vend = skip_balanced(t, k, '(', ')');
            let mut f = k + 1;
            while f < vend - 1 {
                f = skip_field_prefix(t, f);
                let (ty, stop) = read_ty(t, f, &[',']);
                if !ty.is_empty() {
                    fields.push(ty);
                }
                f = stop.min(vend - 1) + 1;
            }
            k = vend;
        } else if k < end && t[k].is_punct('{') {
            let vend = skip_balanced(t, k, '{', '}');
            let mut f = k + 1;
            while f < vend - 1 {
                f = skip_field_prefix(t, f);
                if f >= vend - 1 {
                    break;
                }
                if t[f].ident().is_some() && t.get(f + 1).is_some_and(|x| x.is_punct(':')) {
                    let (ty, stop) = read_ty(t, f + 2, &[',']);
                    if !ty.is_empty() {
                        fields.push(ty);
                    }
                    f = stop.min(vend - 1) + 1;
                } else {
                    f += 1;
                }
            }
            k = vend;
        } else if k < end && t[k].is_punct('=') {
            // Explicit discriminant: skip its expression.
            while k < end && !t[k].is_punct(',') && !(t[k].is_punct('}') && k == end - 1) {
                k += 1;
            }
        }
        variants.push((vname, fields));
        // Skip the separating comma.
        while k < end - 1 && t[k].is_punct(',') {
            k += 1;
        }
    }
    out.enums.push(EnumDef {
        name,
        generics,
        variants,
        line,
    });
    end
}

fn parse_alias(t: &[Token], i: usize, out: &mut Scan) -> usize {
    let Some(name) = t.get(i + 1).and_then(|x| x.ident()) else {
        return i + 1;
    };
    let name = name.to_string();
    let (_, mut j) = read_generics(t, i + 2);
    while j < t.len() && !t[j].is_punct('=') && !t[j].is_punct(';') {
        j += 1;
    }
    if j < t.len() && t[j].is_punct('=') {
        let (ty, stop) = read_ty(t, j + 1, &[';']);
        out.aliases.push((name, ty));
        return stop + 1;
    }
    j + 1
}

fn parse_impl(t: &[Token], i: usize, out: &mut Scan) -> usize {
    let line = t[i].line;
    let (_generics, mut j) = read_generics(t, i + 1);
    // Trait path (or inherent target) up to `for` / `{`.
    let (head, stop) = {
        let mut ty = Vec::new();
        let mut depth = 0i64;
        let mut k = j;
        let mut found = None;
        while k < t.len() {
            if depth == 0 {
                if t[k].is_punct('{') {
                    found = Some(("body", k));
                    break;
                }
                if t[k].ident() == Some("for") || t[k].ident() == Some("where") {
                    found = Some(("for", k));
                    break;
                }
            }
            match &t[k].kind {
                TokKind::Punct('<' | '(' | '[') => depth += 1,
                TokKind::Punct('>' | ')' | ']') => depth -= 1,
                _ => {}
            }
            if let Some(s) = flat(&t[k]) {
                ty.push(s);
            }
            k += 1;
        }
        match found {
            Some((kind, k)) => (Some((kind, ty)), k),
            None => (None, t.len()),
        }
    };
    let Some((kind, head_ty)) = head else {
        return stop;
    };
    j = stop;
    if kind == "body" || base_name(&head_ty).as_deref() != Some("Message") {
        // Inherent impl, or a trait other than Message: skip the body.
        while j < t.len() && !t[j].is_punct('{') {
            j += 1;
        }
        return if j < t.len() {
            skip_balanced(t, j, '{', '}')
        } else {
            t.len()
        };
    }
    // `impl ... Message for Target { ... }`.
    let (target_ty, body_start) = read_ty(t, j + 1, &['{']);
    let target = base_name(&target_ty).unwrap_or_else(|| target_ty.join(" "));
    if body_start >= t.len() {
        return t.len();
    }
    let body_end = skip_balanced(t, body_start, '{', '}');
    let decl = parse_size_words(&t[body_start + 1..body_end.saturating_sub(1)]);
    out.impls.push(MsgImpl {
        target,
        target_ty,
        line,
        decl,
    });
    body_end
}

/// Finds `fn size_words` inside an impl body and classifies its own
/// body.
fn parse_size_words(body: &[Token]) -> SizeDecl {
    let mut depth = 0i64;
    let mut k = 0usize;
    while k < body.len() {
        match &body[k].kind {
            TokKind::Punct('{' | '(' | '[') => depth += 1,
            TokKind::Punct('}' | ')' | ']') => depth -= 1,
            TokKind::Ident(s)
                if depth == 0
                    && s == "fn"
                    && body.get(k + 1).and_then(|x| x.ident()) == Some("size_words") =>
            {
                let mut b = k + 2;
                while b < body.len() && !body[b].is_punct('{') {
                    b += 1;
                }
                if b >= body.len() {
                    return SizeDecl::Default;
                }
                let end = skip_balanced(body, b, '{', '}');
                return classify_body(&body[b + 1..end.saturating_sub(1)]);
            }
            _ => {}
        }
        k += 1;
    }
    SizeDecl::Default
}

fn classify_body(body: &[Token]) -> SizeDecl {
    if body.len() == 1 {
        if let TokKind::Num(raw) = &body[0].kind {
            if let Some(n) = num_value(raw) {
                return SizeDecl::Literal(n);
            }
        }
    }
    if body.first().and_then(|x| x.ident()) == Some("match") {
        if let Some(arms) = parse_match_arms(body) {
            return SizeDecl::Match(arms);
        }
    }
    SizeDecl::Computed {
        mentions_size_words: body.iter().any(|x| x.ident() == Some("size_words")),
    }
}

/// Parses `match <expr> { pat => value, ... }`, lenient about shapes it
/// does not understand (returns None to fall back to Computed).
fn parse_match_arms(body: &[Token]) -> Option<Vec<(Vec<String>, Option<u64>)>> {
    let mut j = 0usize;
    while j < body.len() && !body[j].is_punct('{') {
        j += 1;
    }
    if j >= body.len() {
        return None;
    }
    let end = skip_balanced(body, j, '{', '}');
    let arms_toks = &body[j + 1..end.saturating_sub(1)];
    let mut arms = Vec::new();
    let mut k = 0usize;
    while k < arms_toks.len() {
        // Pattern: up to `=>` at depth 0.
        let pat_start = k;
        let mut depth = 0i64;
        let mut pat_end = None;
        while k < arms_toks.len() {
            match &arms_toks[k].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct('=')
                    if depth == 0 && arms_toks.get(k + 1).is_some_and(|x| x.is_punct('>')) =>
                {
                    pat_end = Some(k);
                    k += 2;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let pat_end = pat_end?;
        if pat_start == pat_end {
            return None;
        }
        let variants = pattern_variants(&arms_toks[pat_start..pat_end]);
        // Value: a balanced block, or tokens up to `,` at depth 0.
        let val_start = k;
        let val_end;
        if k < arms_toks.len() && arms_toks[k].is_punct('{') {
            val_end = skip_balanced(arms_toks, k, '{', '}');
            k = val_end;
            if k < arms_toks.len() && arms_toks[k].is_punct(',') {
                k += 1;
            }
        } else {
            let mut depth = 0i64;
            while k < arms_toks.len() {
                match &arms_toks[k].kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            val_end = k;
            if k < arms_toks.len() {
                k += 1; // past the comma
            }
        }
        let val = literal_value(&arms_toks[val_start..val_end]);
        arms.push((variants, val));
    }
    Some(arms)
}

/// The variant names a match pattern covers; `""` marks a wildcard.
fn pattern_variants(pat: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    // Split alternatives on `|` at depth 0; truncate each at a guard.
    let mut alt: Vec<&Token> = Vec::new();
    let mut depth = 0i64;
    let flush = |alt: &mut Vec<&Token>, out: &mut Vec<String>| {
        let mut last = None;
        let mut d = 0i64;
        for tok in alt.iter() {
            match &tok.kind {
                TokKind::Punct('(' | '[' | '{') => d += 1,
                TokKind::Punct(')' | ']' | '}') => d -= 1,
                TokKind::Ident(s) if d == 0 => {
                    if s == "if" {
                        break;
                    }
                    last = Some(s.clone());
                }
                _ => {}
            }
        }
        match last {
            Some(s) if s == "_" => out.push(String::new()),
            Some(s) => out.push(s),
            None => out.push(String::new()),
        }
        alt.clear();
    };
    for tok in pat {
        match &tok.kind {
            TokKind::Punct('(' | '[' | '{') => {
                depth += 1;
                alt.push(tok);
            }
            TokKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                alt.push(tok);
            }
            TokKind::Punct('|') if depth == 0 => flush(&mut alt, &mut out),
            _ => alt.push(tok),
        }
    }
    flush(&mut alt, &mut out);
    out
}

/// `Some(n)` iff the tokens are a bare numeric literal, possibly inside
/// one redundant brace/paren layer.
fn literal_value(toks: &[Token]) -> Option<u64> {
    let inner: Vec<&Token> = toks
        .iter()
        .filter(|t| !t.is_punct('{') && !t.is_punct('}') && !t.is_punct('(') && !t.is_punct(')'))
        .collect();
    if inner.len() != 1 {
        return None;
    }
    match &inner[0].kind {
        TokKind::Num(raw) => num_value(raw),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str) -> Scan {
        scan(&lex(src))
    }

    #[test]
    fn struct_and_default_impl() {
        let s = scan_src("pub struct M(u64);\nimpl Message for M {}\n");
        assert_eq!(s.structs.len(), 1);
        assert_eq!(s.structs[0].fields, vec![vec!["u64".to_string()]]);
        assert_eq!(s.impls.len(), 1);
        assert!(matches!(s.impls[0].decl, SizeDecl::Default));
    }

    #[test]
    fn named_fields_and_literal() {
        let s = scan_src(
            "pub struct W { pub a: u64, pub b: Option<bool> }\n\
             impl Message for W { fn size_words(&self) -> usize { 2 } }",
        );
        assert_eq!(s.structs[0].fields.len(), 2);
        assert!(matches!(s.impls[0].decl, SizeDecl::Literal(2)));
    }

    #[test]
    fn generic_impl_delegates() {
        let s = scan_src(
            "pub struct Mux2<M> { pub lane: u32, pub msg: M }\n\
             impl<M: Message> Message for Mux2<M> {\n\
               fn size_words(&self) -> usize { 1 + self.msg.size_words() }\n\
             }",
        );
        assert_eq!(s.structs[0].generics, ["M"]);
        assert!(matches!(
            s.impls[0].decl,
            SizeDecl::Computed {
                mentions_size_words: true
            }
        ));
        assert_eq!(s.impls[0].target, "Mux2");
    }

    #[test]
    fn enum_match_with_or_patterns() {
        let s = scan_src(
            "enum E { A { x: u32 }, B(u64, u64), C }\n\
             impl Message for E { fn size_words(&self) -> usize {\n\
               match self { E::A { .. } | E::C => 1, E::B(..) => 2 }\n\
             } }",
        );
        assert_eq!(s.enums[0].variants.len(), 3);
        let SizeDecl::Match(arms) = &s.impls[0].decl else {
            panic!("expected match decl");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].0, ["A", "C"]);
        assert_eq!(arms[0].1, Some(1));
        assert_eq!(arms[1].0, ["B"]);
        assert_eq!(arms[1].1, Some(2));
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let s = scan_src(
            "#[cfg(test)]\nmod tests {\n  struct T(Vec<u64>);\n  impl Message for T {}\n}\n\
             struct Keep(u64);",
        );
        assert!(s.impls.is_empty());
        assert_eq!(s.structs.len(), 1);
        assert_eq!(s.structs[0].name, "Keep");
    }

    #[test]
    fn alias_and_tuple_target() {
        let s = scan_src("pub type Item = (u64, u64);\npub struct M(pub Item);");
        assert_eq!(s.aliases.len(), 1);
        assert_eq!(s.aliases[0].0, "Item");
        assert_eq!(
            s.structs[0].fields,
            vec![vec!["Item".to_string()]],
            "tuple field with pub prefix"
        );
    }

    #[test]
    fn non_message_impl_bodies_are_opaque() {
        let s = scan_src(
            "impl Foo { fn size_words(&self) -> usize { 99 } }\n\
             impl Display for Bar { fn fmt(&self) {} }\n\
             struct Real(u64);\nimpl Message for Real {}",
        );
        assert_eq!(s.impls.len(), 1);
        assert_eq!(s.impls[0].target, "Real");
    }

    #[test]
    fn fn_pointer_field_does_not_derail() {
        let s = scan_src("struct S { f: fn(u64) -> Vec<usize>, g: u32 }");
        assert_eq!(s.structs[0].fields.len(), 2);
    }
}
