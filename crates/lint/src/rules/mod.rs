//! The ten workspace rules.
//!
//! | Rule | Name | Contract |
//! |---|---|---|
//! | R1 | `map-iter` | No iteration over `HashMap`/`HashSet` in non-test library code unless the same statement canonicalises the order (an explicit `sort*`, a `BTree*`/`BinaryHeap` collect) or ends in an order-insensitive terminal (`count`, `sum`, `min_by_key`, …) |
//! | R2 | `clock` | No wall-clock or entropy sources (`Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`) in the library crates, `crates/bench`, `src/`, `tests/` or `examples/`; wall-clock timing belongs in `perfbench/` |
//! | R3 | `panic` | No `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | R4 | `merge-law` | Every type in `crates/analysis` or `crates/obs` defining `fn merge(` must be referenced by a same-crate test whose name contains `merge` or `shard` |
//! | R5 | `unsafe` | Every library crate root must carry `#![forbid(unsafe_code)]` |
//! | R6 | `time-arith` | No bare `+`/`-`/`*` on time-typed quantities (`Time` bindings, `*_us`/`*_ms` names, `now*`) in `sim`/`net`/`faults`/`storage` library code — use `checked_*`/`saturating_*` |
//! | R7 | `cast-truncate` | No narrowing integer `as` cast (`u8`/`u16`/`u32`/`i8`/`i16`/`i32` targets) in `sim`/`trace`/`storage`/`net` library code unless the source is masked/mod-bounded to fit — use `try_from`/`From` |
//! | R8 | `metric-manifest` | Every metric name passed to `.counter(`/`.gauge(`/`.histogram(` in library code must appear in the workspace `METRICS.md` manifest, and every manifest entry must appear in code — drift in either direction is an error |
//! | R9 | `float-merge` | No floating-point accumulation inside `fn merge` bodies in `analysis`/`obs`/`stats` unless annotated with a documented merge-order argument |
//! | R10 | `stale-allow` | Every `mcs-lint: allow(…)` annotation must suppress at least one diagnostic; an allow that suppresses nothing is itself an error |
//!
//! Every rule except R5 and R10 honours a `// mcs-lint: allow(<name>, <reason>)`
//! comment on the flagged line or up to two lines above it. R10 exists
//! precisely to keep that escape hatch honest, so it cannot be allowed away.

pub mod cast;
pub mod determinism;
pub mod float_merge;
pub mod metrics;
pub mod stale_allow;
pub mod time_arith;

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::scanner::{self, SourceFile};

/// The library crates the determinism contract covers.
pub const LIB_CRATES: &[&str] = &[
    "analysis", "core", "faults", "net", "obs", "sim", "stats", "storage", "trace",
];

/// Every rule name an allow-annotation can legally reference, in rule order.
pub const RULE_NAMES: &[&str] = &[
    "map-iter",
    "clock",
    "panic",
    "merge-law",
    "unsafe",
    "time-arith",
    "cast-truncate",
    "metric-manifest",
    "float-merge",
    "stale-allow",
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`R1`..`R10`).
    pub rule: &'static str,
    /// Rule name (doubles as the allow-comment key).
    pub name: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.rule, self.name, self.message
        )
    }
}

/// A scanned file plus workspace-level context.
pub(crate) struct Scanned {
    pub rel: String,
    pub file: SourceFile,
    /// Whole file is test code (`#![cfg(test)]` or `#[cfg(test)] mod x;`
    /// gating in the parent module file).
    pub gated: bool,
}

impl Scanned {
    pub fn is_test_line(&self, line: u32) -> bool {
        self.gated || self.file.in_test(line)
    }
}

/// Shared rule state: collected diagnostics plus which allow-annotations
/// actually suppressed something (the input to R10 and the `--debt` report).
pub(crate) struct RuleCtx {
    pub diags: Vec<Diagnostic>,
    /// `(file, allow line, rule)` for every annotation that matched a
    /// would-be diagnostic.
    used: BTreeSet<(String, u32, String)>,
}

impl RuleCtx {
    pub fn new() -> Self {
        RuleCtx {
            diags: Vec::new(),
            used: BTreeSet::new(),
        }
    }

    /// Whether `rule` is allow-annotated at `line` in `f`. Marks every
    /// covering annotation as used so R10 can flag the stale remainder.
    pub fn allowed(&mut self, f: &Scanned, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in &f.file.allows {
            if scanner::covers(a, rule, line) {
                self.used.insert((f.rel.clone(), a.line, rule.to_string()));
                hit = true;
            }
        }
        hit
    }

    /// Whether the annotation at (`file`, `line`) suppressed a diagnostic
    /// for `rule` during this run (R10's input).
    pub fn was_used(&self, file: &str, line: u32, rule: &str) -> bool {
        self.used
            .contains(&(file.to_string(), line, rule.to_string()))
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }
}

/// Full lint result: diagnostics plus the suppression-debt ledger.
pub struct LintReport {
    /// Sorted, deduplicated violations.
    pub diags: Vec<Diagnostic>,
    /// `(rule name, live allow count)` per rule, rule order, zero counts
    /// included. "Live" means the annotation suppressed at least one
    /// diagnostic this run; stale annotations surface in `diags` as R10.
    pub debt: Vec<(&'static str, usize)>,
}

impl LintReport {
    /// Renders the `--debt` table: live suppressions per rule.
    pub fn debt_table(&self) -> String {
        let mut out = String::from("suppression debt (live allows per rule)\n");
        let mut total = 0usize;
        for (name, n) in &self.debt {
            out.push_str(&format!("  {name:<16} {n:>4}\n"));
            total += n;
        }
        out.push_str(&format!("  {:<16} {total:>4}\n", "total"));
        out
    }
}

/// Runs all rules over the workspace rooted at `root`.
pub fn run_lint(root: &Path) -> io::Result<Vec<Diagnostic>> {
    run_lint_report(root).map(|r| r.diags)
}

/// Runs all rules over the workspace rooted at `root`, returning the
/// diagnostics and the suppression-debt ledger.
pub fn run_lint_report(root: &Path) -> io::Result<LintReport> {
    let mut ctx = RuleCtx::new();

    // Scan the nine library crates.
    let mut lib_files: Vec<Scanned> = Vec::new();
    for krate in LIB_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        lib_files.extend(scan_tree(root, &src_dir)?);
    }

    for f in &lib_files {
        determinism::rule_map_iter(f, &mut ctx);
        determinism::rule_panic(f, &mut ctx);
        determinism::rule_clock(f, &mut ctx);
        time_arith::check(f, &mut ctx);
        cast::check(f, &mut ctx);
        float_merge::check(f, &mut ctx);
    }

    // R2 also covers the `repro` harness, the root package, integration
    // tests and examples (everything that feeds reproduction output).
    // Wall-clock timing lives in `perfbench/`, its own workspace.
    let mut extra_files: Vec<Scanned> = Vec::new();
    for dir in ["crates/bench", "src", "tests", "examples"] {
        extra_files.extend(scan_tree(root, &root.join(dir))?);
    }
    for f in &extra_files {
        determinism::rule_clock(f, &mut ctx);
    }

    determinism::rule_merge_law(&lib_files, &mut ctx);

    for krate in LIB_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        if let Some(f) = lib_files.iter().find(|f| f.rel == rel) {
            determinism::rule_forbid_unsafe(f, &mut ctx);
        } else {
            ctx.push(Diagnostic {
                rule: "R5",
                name: "unsafe",
                file: rel,
                line: 1,
                message: format!("library crate `{krate}` has no src/lib.rs"),
            });
        }
    }

    metrics::check(root, &lib_files, &mut ctx)?;

    // R10 must run last: it consumes the usage ledger every other rule wrote.
    stale_allow::check(lib_files.iter().chain(extra_files.iter()), &mut ctx);

    let mut debt: Vec<(&'static str, usize)> = RULE_NAMES.iter().map(|n| (*n, 0usize)).collect();
    for (_, _, rule) in &ctx.used {
        if let Some(slot) = debt.iter_mut().find(|(n, _)| n == rule) {
            slot.1 += 1;
        }
    }

    let mut diags = ctx.diags;
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags.dedup_by(|a, b| (a.rule, &a.file, a.line) == (b.rule, &b.file, b.line));
    Ok(LintReport { diags, debt })
}

/// Scans every `.rs` file under `dir` (sorted walk; missing dir → empty),
/// then resolves `#[cfg(test)] mod x;` gating across sibling files.
pub(crate) fn scan_tree(root: &Path, dir: &Path) -> io::Result<Vec<Scanned>> {
    let mut paths = Vec::new();
    walk(dir, &mut paths)?;
    paths.sort();
    let mut scanned = Vec::new();
    let mut gated_paths: BTreeSet<PathBuf> = BTreeSet::new();
    for path in &paths {
        let src = std::fs::read_to_string(path)?;
        let file = SourceFile::scan(&src);
        for m in &file.cfg_test_mods {
            let parent = path.parent().unwrap_or(Path::new(""));
            gated_paths.insert(parent.join(format!("{m}.rs")));
            gated_paths.insert(parent.join(m).join("mod.rs"));
            if let Some(stem) = path.file_stem() {
                gated_paths.insert(parent.join(stem).join(format!("{m}.rs")));
            }
        }
        scanned.push((path.clone(), file));
    }
    Ok(scanned
        .into_iter()
        .map(|(path, file)| {
            let gated = gated_paths.contains(&path) || file.all_test;
            Scanned {
                rel: relative(root, &path),
                file,
                gated,
            }
        })
        .collect())
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != "fixtures" {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a pretty-printed JSON array (one object per
/// diagnostic, stable field order) for `mcs-lint --json` consumers.
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"rule\": \"{}\",\n", json_escape(d.rule)));
        out.push_str(&format!("    \"name\": \"{}\",\n", json_escape(d.name)));
        out.push_str(&format!("    \"file\": \"{}\",\n", json_escape(&d.file)));
        out.push_str(&format!("    \"line\": {},\n", d.line));
        out.push_str(&format!(
            "    \"message\": \"{}\"\n",
            json_escape(&d.message)
        ));
        out.push_str(if i + 1 < diags.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push(']');
    out
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::Scanned;
    use crate::scanner::SourceFile;

    pub fn scanned(rel: &str, src: &str) -> Scanned {
        Scanned {
            rel: rel.to_string(),
            file: SourceFile::scan(src),
            gated: false,
        }
    }
}
