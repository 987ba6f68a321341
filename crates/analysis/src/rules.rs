//! The lint rules.
//!
//! Every rule has a stable id (`A001`..`A008`), reports `file:line`
//! diagnostics, and can be silenced at a site with a
//! `// LINT: allow(A00x): reason` comment within the rule's lookback window.
//! A waiver without a reason waives nothing.
//!
//! | id   | rule |
//! |------|------|
//! | A001 | `unsafe` requires a `// SAFETY:` comment |
//! | A002 | non-`Relaxed` atomic orderings require a `// ORDER:` comment |
//! | A003 | no `.unwrap()` / un-annotated `.expect(` in hot-crate non-test code |
//! | A004 | no `std::sync::{Mutex, RwLock, Condvar}` outside `crates/shims` |
//! | A005 | metric names follow the `abase_*` naming conventions |
//! | A006 | every installed failpoint name has a `failpoint::check` fire site |
//! | A007 | the metric tables in `crates/obs/README.md` and the metrics declared in code name the same families |
//! | A008 | every bare `pub fn`/`const`/`static` of a library crate is named by non-test code outside its file |

use crate::lexer::{first_string_after, has_word, is_ident, test_regions, Lexed};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees are held to the A003 no-panic standard.
pub const HOT_CRATES: &[&str] = &["lavastore", "replication", "core", "sim", "cache", "proto"];

/// Crates whose public items A008 does not hold to a caller: the offline
/// stand-ins for crates.io packages (their surface mirrors the real crate),
/// the experiment driver and this tool.
const API_EXEMPT_CRATES: &[&str] = &["shims", "bench", "analysis"];

/// How many preceding lines a justification comment may sit on.
const SAFETY_WINDOW: usize = 6;
const ORDER_WINDOW: usize = 10;
const INVARIANT_WINDOW: usize = 10;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (`A001`..).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The stable identity used for baseline matching.
    pub fn key(&self) -> String {
        format!("{} {}:{}", self.rule, self.path.display(), self.line)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Where a file sits in the workspace; drives which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// The `crates/<name>` component, if any.
    pub crate_name: Option<String>,
    /// Whole-file test/bench/example code (rules A002/A003/A005/A008 skip it).
    pub is_test_file: bool,
    /// Inside `crates/shims` (exempt from A004 — the shims wrap std::sync).
    pub is_shims: bool,
    /// A hot crate's `src/` tree (subject to A003).
    pub is_hot_src: bool,
    /// A library source under `crates/*/src` whose public items A008 checks
    /// (not a binary, and not in [`API_EXEMPT_CRATES`]).
    pub is_api_src: bool,
}

impl FileCtx {
    /// Classify `rel` (a workspace-root-relative path).
    pub fn from_rel(rel: &Path) -> Self {
        let comps: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let crate_name = if comps.len() >= 2 && comps[0] == "crates" {
            Some(comps[1].clone())
        } else {
            None
        };
        let is_test_file = comps
            .iter()
            .any(|c| c == "tests" || c == "benches" || c == "examples" || c == "fixtures");
        let is_shims = comps.first().map(String::as_str) == Some("crates")
            && comps.get(1).map(String::as_str) == Some("shims");
        let is_hot_src = crate_name
            .as_deref()
            .is_some_and(|n| HOT_CRATES.contains(&n))
            && comps.iter().any(|c| c == "src")
            && !is_test_file;
        let is_binary = comps.get(3).map(String::as_str) == Some("bin")
            || (comps.len() == 4 && comps[3] == "main.rs");
        let is_api_src = crate_name
            .as_deref()
            .is_some_and(|n| !API_EXEMPT_CRATES.contains(&n))
            && comps.get(2).map(String::as_str) == Some("src")
            && !is_binary
            && !is_test_file;
        FileCtx {
            rel: rel.to_path_buf(),
            crate_name,
            is_test_file,
            is_shims,
            is_hot_src,
            is_api_src,
        }
    }
}

/// The one document whose metric tables A007 holds to the code.
pub const METRICS_README: &str = "crates/obs/README.md";

/// A name seen at a site: a failpoint at an `install` or `check` call, a
/// metric family at its declaration or in its README row.
#[derive(Debug, Clone)]
pub struct NamedSite {
    /// The name literal.
    pub name: String,
    /// File it appeared in.
    pub path: PathBuf,
    /// 1-based line of the call.
    pub line: usize,
}

/// Cross-file facts collected during the per-file pass, consumed by A006
/// and A007.
#[derive(Debug, Default)]
pub struct CrossFile {
    /// Failpoint names passed to `failpoint::install(...)`.
    pub installs: Vec<NamedSite>,
    /// Failpoint names passed to `failpoint::check(...)`.
    pub checks: Vec<NamedSite>,
    /// Metric families declared in non-test code (`Lazy*::new("name", ..)`).
    pub metric_decls: Vec<NamedSite>,
    /// Metric families named in the README's tables; `None` until the README
    /// has been seen (A007 has nothing to compare against without it).
    pub metric_docs: Option<Vec<NamedSite>>,
    /// Bare `pub fn`/`const`/`static` items of library sources (A008).
    pub pub_items: Vec<NamedSite>,
    /// Every identifier that non-test, non-`use` code names, with the files
    /// that name it (A008).
    pub named_in: BTreeMap<String, BTreeSet<PathBuf>>,
}

/// True if any comment in the `window` lines ending at `line` (1-based)
/// satisfies `found`.
fn comment_nearby(lexed: &Lexed, line: usize, window: usize, found: impl Fn(&str) -> bool) -> bool {
    let lo = line.saturating_sub(window);
    (lo..=line)
        .filter_map(|n| n.checked_sub(1).and_then(|i| lexed.lines.get(i)))
        .any(|info| found(&info.comment))
}

/// True if `comment` holds a `LINT: allow(<rule>): <reason>` waiver. A
/// waiver whose reason is blank does not count.
fn has_waiver(comment: &str, rule: &str) -> bool {
    let marker = format!("LINT: allow({rule}):");
    comment
        .split(marker.as_str())
        .skip(1)
        .any(|reason| !reason.trim().is_empty())
}

/// True if an explicit waiver for `rule` is in scope for `line`.
fn lint_allowed(lexed: &Lexed, line: usize, rule: &str) -> bool {
    comment_nearby(lexed, line, INVARIANT_WINDOW, |c| has_waiver(c, rule))
}

/// True if a waiver for `rule` sits on the item at `line` or among the
/// comment and attribute lines directly above it, so that it waives that
/// item and not its neighbours.
fn item_waived(lexed: &Lexed, line: usize, rule: &str) -> bool {
    lexed.lines[..line]
        .iter()
        .rev()
        .enumerate()
        .take_while(|(k, info)| {
            let code = info.code.trim();
            *k == 0 || code.is_empty() || code.starts_with("#[")
        })
        .any(|(_, info)| has_waiver(&info.comment, rule))
}

/// Byte offsets of every word-bounded occurrence of `needle` in `hay`.
fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = hay[..at]
            .chars()
            .next_back()
            .map(|c| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(true);
        if before_ok {
            out.push(at);
        }
        start = at + needle.len();
    }
    out
}

/// Run every per-file rule on one lexed file and collect cross-file facts.
pub fn check_file(ctx: &FileCtx, lexed: &Lexed, cross: &mut CrossFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_test = test_regions(&lexed.lines);
    let mut in_use = false;
    let push = |findings: &mut Vec<Finding>, line: usize, rule: &'static str, msg: String| {
        findings.push(Finding {
            path: ctx.rel.clone(),
            line,
            rule,
            message: msg,
        });
    };

    for (idx, info) in lexed.lines.iter().enumerate() {
        let line = idx + 1;
        let code = info.code.as_str();
        let test_code = ctx.is_test_file || in_test[idx];

        // A001: every `unsafe` keyword needs a SAFETY comment nearby.
        if has_word(code, "unsafe")
            && !comment_nearby(lexed, line, SAFETY_WINDOW, |c| c.contains("SAFETY:"))
            && !lint_allowed(lexed, line, "A001")
        {
            push(
                &mut findings,
                line,
                "A001",
                "`unsafe` without a `// SAFETY:` comment within the preceding lines".into(),
            );
        }

        // A002: Acquire/Release/AcqRel/SeqCst need an ORDER comment naming
        // the pairing site. Relaxed needs no justification; test code is
        // exempt (ordering there is about convenience, not protocol).
        if !test_code {
            for variant in ["Acquire", "Release", "AcqRel", "SeqCst"] {
                let pat = format!("Ordering::{variant}");
                if code.contains(pat.as_str())
                    && !comment_nearby(lexed, line, ORDER_WINDOW, |c| c.contains("ORDER:"))
                    && !lint_allowed(lexed, line, "A002")
                {
                    push(
                        &mut findings,
                        line,
                        "A002",
                        format!("`{pat}` without a `// ORDER:` comment naming its pairing site"),
                    );
                    break; // one diagnostic per line is enough
                }
            }
        }

        // A003: hot-crate production code must not panic through
        // `.unwrap()`; `.expect(` is allowed only under an
        // `// INVARIANT:` annotation explaining why it cannot fire.
        if ctx.is_hot_src && !test_code {
            if code.contains(".unwrap()") && !lint_allowed(lexed, line, "A003") {
                push(
                    &mut findings,
                    line,
                    "A003",
                    "`.unwrap()` in hot-crate production code; propagate the error instead".into(),
                );
            }
            if code.contains(".expect(")
                && !comment_nearby(lexed, line, INVARIANT_WINDOW, |c| c.contains("INVARIANT:"))
                && !lint_allowed(lexed, line, "A003")
            {
                push(
                    &mut findings,
                    line,
                    "A003",
                    "`.expect(` in hot-crate production code without an `// INVARIANT:` \
                     justification"
                        .into(),
                );
            }
        }

        // A004: the workspace locks through the parking_lot shim (or the
        // ranked wrappers on top of it); bare std::sync locks are only
        // allowed inside the shim itself.
        if !ctx.is_shims
            && code.contains("std::sync")
            && ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|t| has_word(code, t))
            && !lint_allowed(lexed, line, "A004")
        {
            push(
                &mut findings,
                line,
                "A004",
                "std::sync lock type outside crates/shims; use the parking_lot shim or \
                 abase_util::lockrank wrappers"
                    .into(),
            );
        }

        // A005: metric names must follow the registry conventions.
        if !test_code {
            for (kind, token) in [
                ("counter", "LazyCounter::new("),
                ("counter", "LazyCounterFamily::new("),
                ("gauge", "LazyGauge::new("),
                ("gauge", "LazyGaugeFamily::new("),
                ("histogram", "LazyHisto::new("),
                ("histogram", "LazyHistoFamily::new("),
            ] {
                for at in word_positions(code, token) {
                    let col = code[..at].chars().count();
                    let Some(lit) = first_string_after(lexed, line, col) else {
                        continue;
                    };
                    if let Some(msg) = metric_name_violation(kind, &lit.value) {
                        if !lint_allowed(lexed, line, "A005") {
                            push(&mut findings, line, "A005", msg);
                        }
                    }
                    // A007 (collection): the family is declared here.
                    if !lint_allowed(lexed, line, "A007") {
                        cross.metric_decls.push(NamedSite {
                            name: lit.value.clone(),
                            path: ctx.rel.clone(),
                            line,
                        });
                    }
                }
            }
        }

        // A008 (collection): the file's public items, and the names its
        // non-test code uses. A `use` line (or a multi-line `use` block)
        // imports a name without calling it, so it names nothing.
        if !test_code {
            let trimmed = code.trim_start();
            in_use |= ["use ", "pub use ", "pub(crate) use "]
                .iter()
                .any(|p| trimmed.starts_with(p));
            if in_use {
                in_use = !code.contains(';');
            } else {
                record_names(code, &ctx.rel, &mut cross.named_in);
                if ctx.is_api_src {
                    if let Some(name) = pub_item_name(trimmed) {
                        if !item_waived(lexed, line, "A008") {
                            cross.pub_items.push(NamedSite {
                                name: name.to_string(),
                                path: ctx.rel.clone(),
                                line,
                            });
                        }
                    }
                }
            }
        }

        // A006 (collection): record failpoint install/check names. Installs
        // inside `#[cfg(test)]` mods are skipped (a test may install a point
        // it also defines locally), but whole-file tests count — the chaos
        // harness and integration tests are exactly who installs faults.
        for (list, token, skip) in [
            (&mut cross.installs, "failpoint::install(", in_test[idx]),
            (&mut cross.checks, "failpoint::check(", false),
        ] {
            if skip {
                continue;
            }
            for at in word_positions(code, token) {
                let col = code[..at].chars().count();
                if let Some(lit) = first_string_after(lexed, line, col) {
                    list.push(NamedSite {
                        name: lit.value.clone(),
                        path: ctx.rel.clone(),
                        line,
                    });
                }
            }
        }
    }
    findings
}

/// Identifier tokens of one line of blanked code.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident(c))
        .filter(|w| w.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// Record every identifier `code` uses. The name an `fn`, `const` or
/// `static` keyword declares is a definition, not a use, so it is skipped.
fn record_names(code: &str, rel: &Path, named_in: &mut BTreeMap<String, BTreeSet<PathBuf>>) {
    let mut declares = false;
    for word in idents(code) {
        let keyword = matches!(word, "fn" | "const" | "static");
        if declares && !keyword && !matches!(word, "unsafe" | "mut") {
            declares = false;
            continue;
        }
        declares |= keyword;
        named_in
            .entry(word.to_string())
            .or_default()
            .insert(rel.to_path_buf());
    }
}

/// The name of a bare `pub fn`, `pub const` or `pub static` item declared
/// on this (trimmed, blanked) line; `pub(crate)` and friends do not count.
fn pub_item_name(trimmed: &str) -> Option<&str> {
    let mut words = idents(trimmed.strip_prefix("pub ")?);
    let mut word = words.next()?;
    let mut item = false;
    loop {
        match word {
            "const" | "static" | "fn" => item = true,
            "unsafe" | "async" | "extern" | "mut" => {}
            name if item => return Some(name),
            _ => return None,
        }
        word = words.next()?;
    }
}

/// Check one metric name against the conventions; `None` means clean.
///
/// Conventions (see `crates/obs`): every name starts `abase_`; counters end
/// in `_total`; histograms end in a unit (`_micros`, `_bytes`, `_frames`,
/// `_commands`); gauges are instantaneous so they must *not* carry a
/// cumulative (`_total`) or duration (`_micros`) suffix.
pub fn metric_name_violation(kind: &str, name: &str) -> Option<String> {
    if !name.starts_with("abase_") {
        return Some(format!(
            "metric `{name}` must start with the `abase_` namespace prefix"
        ));
    }
    match kind {
        "counter" if !name.ends_with("_total") => {
            Some(format!("counter `{name}` must end in `_total`"))
        }
        "histogram" => {
            const UNITS: &[&str] = &["_micros", "_bytes", "_frames", "_commands"];
            if UNITS.iter().any(|u| name.ends_with(u)) {
                None
            } else {
                Some(format!(
                    "histogram `{name}` must end in a unit suffix ({})",
                    UNITS.join(", ")
                ))
            }
        }
        "gauge" if name.ends_with("_total") || name.ends_with("_micros") => Some(format!(
            "gauge `{name}` must not use a cumulative/duration suffix"
        )),
        _ => None,
    }
}

/// A006: every installed failpoint name must have at least one fire site.
pub fn check_failpoints(cross: &CrossFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for inst in &cross.installs {
        if !cross.checks.iter().any(|c| c.name == inst.name) {
            findings.push(Finding {
                path: inst.path.clone(),
                line: inst.line,
                rule: "A006",
                message: format!(
                    "failpoint `{}` is installed here but no `failpoint::check(\"{}\")` \
                     fire site exists",
                    inst.name, inst.name
                ),
            });
        }
    }
    findings
}

/// A008: every bare public item of a library crate is named by non-test
/// code outside its defining file. One that is not is surface nobody uses:
/// delete it, narrow it to its file or crate, or make it a test helper.
/// An integration test, bench or example that needs it keeps it `pub`
/// under a waiver naming that file.
pub fn check_unused_api(cross: &CrossFile) -> Vec<Finding> {
    cross
        .pub_items
        .iter()
        .filter(|item| {
            cross
                .named_in
                .get(&item.name)
                .is_none_or(|files| files.iter().all(|f| *f == item.path))
        })
        .map(|item| Finding {
            path: item.path.clone(),
            line: item.line,
            rule: "A008",
            message: format!(
                "`pub` item `{}` is named by no non-test code outside this file; \
                 delete it, narrow its visibility, or make it `#[cfg(test)]`",
                item.name
            ),
        })
        .collect()
}

/// A007 (collection): the metric families the README's tables name — every
/// table row whose first cell is a back-ticked `abase_*` identifier. Rows for
/// names outside that namespace (`failpoint_fired_total`, synthesized at
/// snapshot time and footnoted as such) are not declarations' business.
pub fn collect_documented_metrics(rel: &Path, text: &str, cross: &mut CrossFile) {
    let docs = cross.metric_docs.get_or_insert_with(Vec::new);
    for (idx, row) in text.lines().enumerate() {
        let Some(cell) = row.trim_start().strip_prefix("| `") else {
            continue;
        };
        let Some((name, _)) = cell.split_once('`') else {
            continue;
        };
        if name.starts_with("abase_") {
            docs.push(NamedSite {
                name: name.to_string(),
                path: rel.to_path_buf(),
                line: idx + 1,
            });
        }
    }
}

/// A007: the README's metric tables and the declarations in code must name
/// the same families — a row without a declaration documents a metric nobody
/// records, a declaration without a row is a metric an operator cannot look
/// up.
pub fn check_metric_docs(cross: &CrossFile) -> Vec<Finding> {
    let Some(docs) = &cross.metric_docs else {
        return Vec::new();
    };
    let missing = |refs: &[NamedSite], other: &[NamedSite], what: &str| -> Vec<Finding> {
        refs.iter()
            .filter(|r| !other.iter().any(|o| o.name == r.name))
            .map(|r| Finding {
                path: r.path.clone(),
                line: r.line,
                rule: "A007",
                message: format!("metric family `{}` {what}", r.name),
            })
            .collect()
    };
    let mut findings = missing(
        docs,
        &cross.metric_decls,
        "has a README row but no `Lazy*::new` declaration in code",
    );
    findings.extend(missing(
        &cross.metric_decls,
        docs,
        &format!("is declared here but has no row in {METRICS_README}"),
    ));
    findings
}
