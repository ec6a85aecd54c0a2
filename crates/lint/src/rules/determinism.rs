//! R1–R5: the original determinism contract rules.
//!
//! R1 `map-iter`, R2 `clock`, R3 `panic`, R4 `merge-law`, R5 `unsafe`.
//! See the module table in [`super`] for the contract each enforces.

use std::collections::BTreeSet;

use crate::expr;
use crate::scanner::{SourceFile, Tok, TokKind};

use super::{Diagnostic, RuleCtx, Scanned};

/// Methods that iterate a map/set in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Calls that impose a canonical order on whatever they iterate.
const SORTERS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Terminal operations whose result is independent of iteration order
/// (up to key ties for the `*_by_key` family — the caller must guarantee
/// distinct keys, which an allow-comment should state when non-obvious).
const ORDER_FREE: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "contains",
    "contains_key",
];

/// Collects that land in an ordered container, restoring determinism.
const ORDERED_SINKS: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];

// ---------------------------------------------------------------- R1

/// R1: iteration over `HashMap`/`HashSet` must not leak storage order.
pub(crate) fn rule_map_iter(f: &Scanned, ctx: &mut RuleCtx) {
    if f.gated {
        return;
    }
    let toks = &f.file.tokens;
    let is_map = |t: &Tok| t.is_ident("HashMap") || t.is_ident("HashSet");
    let bindings = expr::collect_bindings(&f.file, |l| f.is_test_line(l), is_map, is_map);
    if bindings.is_empty() {
        return;
    }

    // Method-call sites: `<binding>.iter()`, `self.<binding>.keys()`, ….
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(recv) = receiver_name(toks, i - 2) else {
            continue;
        };
        if !bindings.contains(recv) {
            continue;
        }
        if f.is_test_line(t.line) || ctx.allowed(f, "map-iter", t.line) {
            continue;
        }
        if statement_restores_order(toks, i + 1) || sorted_out_of_band(toks, i) {
            continue;
        }
        ctx.push(Diagnostic {
            rule: "R1",
            name: "map-iter",
            file: f.rel.clone(),
            line: t.line,
            message: format!(
                "`{recv}.{}()` iterates a HashMap/HashSet without sorting in the same \
                 statement; sort the result, use a BTree container, or annotate \
                 `// mcs-lint: allow(map-iter, <reason>)`",
                t.text
            ),
        });
    }

    // `for` loops over a map binding.
    for i in 0..toks.len() {
        if !toks[i].is_ident("for") {
            continue;
        }
        let Some((expr_start, expr_end)) = expr::for_loop_expr(toks, i) else {
            continue;
        };
        let line = toks[i].line;
        if f.is_test_line(line) || ctx.allowed(f, "map-iter", line) {
            continue;
        }
        // Method sites inside the header were already checked above (and
        // carry the sort/terminal escapes); a bare `for x in map`-style
        // header has no in-statement escape, so it must be annotated.
        if toks[expr_start..expr_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str()))
        {
            continue;
        }
        let hits_map = toks[expr_start..expr_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && bindings.contains(t.text.as_str()));
        if hits_map {
            ctx.push(Diagnostic {
                rule: "R1",
                name: "map-iter",
                file: f.rel.clone(),
                line,
                message: "`for` loop over a HashMap/HashSet binding leaks storage order; \
                          iterate a sorted copy, use a BTree container, or annotate \
                          `// mcs-lint: allow(map-iter, <reason>)`"
                    .to_string(),
            });
        }
    }
}

/// Resolves the receiver of a `.method()` call at the token *before* the
/// dot: `map.iter()` → `map`; `self.field.iter()` → `field`. Returns
/// `None` for receivers too complex to name (conservatively unflagged).
fn receiver_name(toks: &[Tok], i: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind == TokKind::Ident && t.text != "self" {
        return Some(&t.text);
    }
    None
}

/// Scans from the iteration call's opening paren to the end of the
/// statement; true when the chain sorts, ends order-insensitively, or
/// collects into an ordered container.
fn statement_restores_order(toks: &[Tok], open_paren: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[open_paren..] {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_punct(',') || t.is_punct('{')) {
            return false;
        } else if t.kind == TokKind::Ident
            && (SORTERS.contains(&t.text.as_str())
                || ORDER_FREE.contains(&t.text.as_str())
                || ORDERED_SINKS.contains(&t.text.as_str()))
        {
            return true;
        }
    }
    false
}

/// Escapes the forward scan cannot see: a `let s: BTreeSet<_> = …`
/// annotation earlier in the same statement, or the canonical
/// collect-then-sort idiom where the *next* statement sorts the binding
/// this statement produced (`let mut v = m.keys().collect(); v.sort();`).
fn sorted_out_of_band(toks: &[Tok], method_idx: usize) -> bool {
    // Walk back to the statement start (bounded; closures make exact
    // brace-depth bookkeeping overkill here — conservative either way).
    let mut start = method_idx;
    for k in (method_idx.saturating_sub(40)..method_idx).rev() {
        if toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}') {
            start = k + 1;
            break;
        }
        start = k;
    }
    let head = &toks[start..method_idx];
    if head
        .iter()
        .any(|t| t.kind == TokKind::Ident && ORDERED_SINKS.contains(&t.text.as_str()))
    {
        return true;
    }

    // `let [mut] NAME = …` head → look for `NAME.sort*(` in the statement
    // immediately after this one.
    let target = match head {
        [l, n, ..] if l.is_ident("let") && n.kind == TokKind::Ident && n.text != "mut" => &n.text,
        [l, m, n, ..] if l.is_ident("let") && m.is_ident("mut") && n.kind == TokKind::Ident => {
            &n.text
        }
        _ => return false,
    };
    // Skip to the `;` ending this statement.
    let mut depth = 0i32;
    let mut j = method_idx;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && t.is_punct('{') {
            return false;
        } else if depth == 0 && t.is_punct(';') {
            break;
        }
        j += 1;
    }
    // Next statement: `target . sort* (` before the following `;`.
    let next = &toks[j + 1..toks.len().min(j + 40)];
    for w in 0..next.len() {
        if next[w].is_punct(';') || next[w].is_punct('{') || next[w].is_punct('}') {
            break;
        }
        if next[w].is_ident(target)
            && next.get(w + 1).is_some_and(|t| t.is_punct('.'))
            && next
                .get(w + 2)
                .is_some_and(|t| SORTERS.contains(&t.text.as_str()))
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- R2

/// R2: no wall-clock or entropy sources in the scanned code (timing
/// belongs in `perfbench/`).
pub(crate) fn rule_clock(f: &Scanned, ctx: &mut RuleCtx) {
    let toks = &f.file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "SystemTime" | "thread_rng" | "from_entropy" => Some(t.text.as_str()),
            "Instant" => (toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now")))
            .then_some("Instant::now"),
            _ => None,
        };
        let Some(source) = hit else { continue };
        if ctx.allowed(f, "clock", t.line) {
            continue;
        }
        ctx.push(Diagnostic {
            rule: "R2",
            name: "clock",
            file: f.rel.clone(),
            line: t.line,
            message: format!(
                "`{source}` is a nondeterminism source; seed explicitly from config \
                 (wall-clock timing belongs in perfbench/)"
            ),
        });
    }
}

// ---------------------------------------------------------------- R3

/// R3: no panicking calls in non-test library code.
pub(crate) fn rule_panic(f: &Scanned, ctx: &mut RuleCtx) {
    if f.gated {
        return;
    }
    let toks = &f.file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let site = match t.text.as_str() {
            "unwrap" | "expect"
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                Some(format!(".{}()", t.text))
            }
            "panic" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                Some(format!("{}!", t.text))
            }
            _ => None,
        };
        let Some(site) = site else { continue };
        if f.is_test_line(t.line) || ctx.allowed(f, "panic", t.line) {
            continue;
        }
        ctx.push(Diagnostic {
            rule: "R3",
            name: "panic",
            file: f.rel.clone(),
            line: t.line,
            message: format!(
                "`{site}` can abort the pipeline mid-run; return a Result, handle the \
                 case, or annotate `// mcs-lint: allow(panic, <reason>)`"
            ),
        });
    }
}

// ---------------------------------------------------------------- R4

/// R4: every `fn merge(` type in the shard-reduce crates
/// (`crates/analysis`, `crates/obs`) needs a merge-law or
/// shard-invariance test referencing it by name.
pub(crate) fn rule_merge_law(files: &[Scanned], ctx: &mut RuleCtx) {
    for prefix in ["crates/analysis/", "crates/obs/"] {
        merge_law_for_crate(files, prefix, ctx);
    }
}

/// Runs R4 over one crate's files; tests in one crate cannot vouch for
/// merge impls in another.
fn merge_law_for_crate(files: &[Scanned], prefix: &str, ctx: &mut RuleCtx) {
    let analysis: Vec<&Scanned> = files.iter().filter(|f| f.rel.starts_with(prefix)).collect();

    // All identifiers referenced by test fns whose name mentions merge or
    // shard, across the whole crate.
    let mut tested: BTreeSet<String> = BTreeSet::new();
    for f in &analysis {
        let toks = &f.file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !(name.text.contains("merge") || name.text.contains("shard")) {
                continue;
            }
            if !(f.gated || f.file.in_test(name.line)) {
                continue;
            }
            // Collect idents through the fn body (first `{` … matching `}`).
            let mut depth = 0i32;
            let mut started = false;
            for t in &toks[i + 2..] {
                if t.is_punct('{') {
                    depth += 1;
                    started = true;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if started && depth == 0 {
                        break;
                    }
                } else if t.kind == TokKind::Ident {
                    tested.insert(t.text.clone());
                }
            }
        }
    }

    for f in &analysis {
        for (type_name, line) in merge_impls(&f.file) {
            if f.gated || f.file.in_test(line) {
                continue;
            }
            if tested.contains(&type_name) {
                continue;
            }
            if ctx.allowed(f, "merge-law", line) {
                continue;
            }
            ctx.push(Diagnostic {
                rule: "R4",
                name: "merge-law",
                file: f.rel.clone(),
                line,
                message: format!(
                    "`{type_name}` defines `fn merge` but no test named *merge*/*shard* \
                     references it; add a merge-law test so the shard-reduce monoid \
                     stays total"
                ),
            });
        }
    }
}

/// `(type_name, line_of_fn_merge)` for every `fn merge` inside an `impl`
/// block of this file.
fn merge_impls(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip generic params.
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut d = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('<') {
                    d += 1;
                } else if toks[j].is_punct('>') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
        }
        // Read the (possibly trait) path up to `for`/`where`/`{`; the
        // implemented type is the last path segment before its generics.
        let mut type_name = String::new();
        let mut d = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                d += 1;
            } else if t.is_punct('>') {
                d -= 1;
            } else if d == 0 && t.is_ident("for") {
                type_name.clear(); // trait path — the type follows
            } else if d == 0 && (t.is_punct('{') || t.is_ident("where")) {
                break;
            } else if d == 0 && t.kind == TokKind::Ident {
                type_name = t.text.clone();
            }
            j += 1;
        }
        // Find the body opening brace, then scan it for `fn merge`.
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("fn")
                && toks.get(j + 1).is_some_and(|t| t.is_ident("merge"))
                && !type_name.is_empty()
            {
                out.push((type_name.clone(), toks[j].line));
            }
            j += 1;
        }
        i = j + 1;
    }
    out
}

// ---------------------------------------------------------------- R5

/// R5: library crate roots must forbid unsafe code.
pub(crate) fn rule_forbid_unsafe(f: &Scanned, ctx: &mut RuleCtx) {
    let toks = &f.file.tokens;
    let has = (0..toks.len()).any(|i| {
        toks[i].is_ident("forbid")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("unsafe_code"))
    });
    if !has {
        ctx.push(Diagnostic {
            rule: "R5",
            name: "unsafe",
            file: f.rel.clone(),
            line: 1,
            message: "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::scanned;
    use super::*;

    #[test]
    fn map_iter_flags_unsorted_keys() {
        let f = scanned(
            "crates/x/src/a.rs",
            "fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }",
        );
        let mut ctx = RuleCtx::new();
        rule_map_iter(&f, &mut ctx);
        assert_eq!(ctx.diags.len(), 1);
        assert_eq!(ctx.diags[0].rule, "R1");
    }

    #[test]
    fn map_iter_accepts_sorted_and_order_free() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                   let a: Vec<u32> = m.keys().copied().collect();\n\
                   let n = m.values().count();\n\
                   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   v.sort();\n\
                   let s: BTreeSet<u32> = m.keys().copied().collect();\n\
                   let t = m.keys().copied().collect::<BTreeSet<u32>>();\n\
                   }";
        let f = scanned("crates/x/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_map_iter(&f, &mut ctx);
        // Line 2 is never sorted → flagged. Line 3 is an order-free
        // terminal, line 4 is sorted by the next statement, lines 6-7
        // land in an ordered container (annotation / turbofish).
        assert_eq!(ctx.diags.len(), 1, "{:?}", ctx.diags);
        assert_eq!(ctx.diags[0].line, 2);
    }

    #[test]
    fn map_iter_for_loop_needs_allow() {
        let bad = "fn f(m: &HashSet<u32>) { for x in m { use_it(x); } }";
        let f = scanned("crates/x/src/a.rs", bad);
        let mut ctx = RuleCtx::new();
        rule_map_iter(&f, &mut ctx);
        assert_eq!(ctx.diags.len(), 1);

        let ok = "fn f(m: &HashSet<u32>) {\n\
                  // mcs-lint: allow(map-iter, folded into an order-free sum)\n\
                  for x in m { s += x; }\n}";
        let f = scanned("crates/x/src/a.rs", ok);
        let mut ctx = RuleCtx::new();
        rule_map_iter(&f, &mut ctx);
        assert!(ctx.diags.is_empty(), "{:?}", ctx.diags);
    }

    #[test]
    fn map_iter_ignores_btree_and_tests() {
        let src = "fn f(m: &BTreeMap<u32, u32>) { for x in m.keys() { g(x); } }\n\
                   #[cfg(test)]\nmod tests {\n\
                   fn t(m: &HashMap<u32, u32>) { for x in m.keys() { g(x); } }\n}";
        let f = scanned("crates/x/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_map_iter(&f, &mut ctx);
        assert!(ctx.diags.is_empty(), "{:?}", ctx.diags);
    }

    #[test]
    fn panic_rule_flags_and_allows() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g() { panic!(\"boom\"); }\n\
                   fn h(x: Option<u32>) -> u32 {\n\
                   // mcs-lint: allow(panic, length checked above)\n\
                   x.expect(\"checked\")\n}";
        let f = scanned("crates/x/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_panic(&f, &mut ctx);
        assert_eq!(ctx.diags.len(), 2, "{:?}", ctx.diags);
        assert_eq!(ctx.diags[0].line, 1);
        assert_eq!(ctx.diags[1].line, 2);
    }

    #[test]
    fn clock_rule() {
        let src = "fn f() { let t = Instant::now(); }";
        let f = scanned("crates/x/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_clock(&f, &mut ctx);
        assert_eq!(ctx.diags.len(), 1);
        assert_eq!(ctx.diags[0].rule, "R2");
        // `Instant` not followed by `::now` is fine (e.g. a type position).
        let f = scanned("crates/x/src/a.rs", "fn f(t: Instant) {}");
        let mut ctx = RuleCtx::new();
        rule_clock(&f, &mut ctx);
        assert!(ctx.diags.is_empty());
    }

    #[test]
    fn merge_law_matches_by_type_name() {
        let src = "pub struct Acc { n: u64 }\n\
                   impl Acc { pub fn merge(&mut self, o: &Self) { self.n += o.n; } }\n\
                   #[cfg(test)]\nmod tests {\n\
                   #[test]\nfn merge_law_acc() { let a = Acc { n: 0 }; }\n}";
        let covered = scanned("crates/analysis/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_merge_law(&[covered], &mut ctx);
        assert!(ctx.diags.is_empty(), "{:?}", ctx.diags);

        let src = "pub struct Acc { n: u64 }\n\
                   impl Acc { pub fn merge(&mut self, o: &Self) { self.n += o.n; } }";
        let uncovered = scanned("crates/analysis/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_merge_law(&[uncovered], &mut ctx);
        assert_eq!(ctx.diags.len(), 1);
        assert_eq!(ctx.diags[0].rule, "R4");
        assert_eq!(ctx.diags[0].line, 2);
    }

    #[test]
    fn merge_law_outside_shard_crates_is_ignored() {
        let src = "pub struct Acc { n: u64 }\n\
                   impl Acc { pub fn merge(&mut self, o: &Self) {} }";
        let f = scanned("crates/sim/src/a.rs", src);
        let mut ctx = RuleCtx::new();
        rule_merge_law(&[f], &mut ctx);
        assert!(ctx.diags.is_empty());
    }

    #[test]
    fn forbid_unsafe_detection() {
        let f = scanned(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        );
        let mut ctx = RuleCtx::new();
        rule_forbid_unsafe(&f, &mut ctx);
        assert!(ctx.diags.is_empty());
        let f = scanned("crates/x/src/lib.rs", "pub fn f() {}");
        let mut ctx = RuleCtx::new();
        rule_forbid_unsafe(&f, &mut ctx);
        assert_eq!(ctx.diags.len(), 1);
        assert_eq!(ctx.diags[0].rule, "R5");
    }
}
