//! The lint rules.
//!
//! Every rule has a stable id (`A001`..`A009`), reports `file:line`
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
//! | A009 | (a) every variant of a library crate's `pub enum` is constructed by non-test code; (b) no parameter of a library fn is passed the same literal by every non-test call site |

use crate::lexer::{first_string_after, has_word, is_ident, test_regions, Lexed, LineInfo};
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
    /// Whole-file test/bench/example code (rules A002/A003/A005/A008/A009
    /// skip it).
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
    /// Variants of library sources' `pub enum`s, named `Enum::Variant` (A009a).
    pub variants: Vec<NamedSite>,
    /// What non-test code constructs, as `(qualifier, variant)`: the path
    /// segment before the variant (an enum, `Self`, or empty when bare).
    pub constructed: BTreeSet<(String, String)>,
    /// How often each fn name is defined anywhere, tests included (A009b).
    pub fn_defs: BTreeMap<String, usize>,
    /// Signatures of the fns of library sources (A009b).
    pub fn_sigs: Vec<FnSig>,
    /// Non-test call sites, by callee name (A009b).
    pub calls: BTreeMap<String, Vec<CallSite>>,
    /// Names non-test code mentions other than as a callee or a definition,
    /// such as a fn passed as a value: its arguments are out of sight.
    pub uncalled: BTreeSet<String>,
}

/// A fn whose parameters A009b holds to its call sites.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// The fn's name and the line that defines it.
    pub site: NamedSite,
    /// Parameter names in order, a `self` receiver included.
    pub params: Vec<String>,
    /// True if the first parameter is a `self` receiver.
    pub has_self: bool,
}

/// One non-test call of a name.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// A method call (`.name(`), whose receiver is no argument.
    pub method: bool,
    /// Each argument's literal value, `None` for anything but a literal.
    pub args: Vec<Option<String>>,
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
    let mut live = vec![false; lexed.lines.len()];
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
                live[idx] = true;
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
    collect_reach(ctx, lexed, &live, cross);
    findings
}

/// Identifier tokens of one line of blanked code, with their byte offsets.
fn ident_spans(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, is_ident(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if !code[s..].starts_with(|c: char| c.is_ascii_digit()) {
                    out.push((s, &code[s..i]));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// Identifier tokens of one line of blanked code.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    ident_spans(code).into_iter().map(|(_, w)| w)
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

/// How many lines a parameter or argument list may span before A009 gives
/// up on it.
const LIST_LINES: usize = 60;

/// The blanked code of `lines` from byte `col` of line `line` on, as
/// `(line, byte, char)`, with a `'\n'` at the end of each line.
fn code_from(
    lines: &[LineInfo],
    line: usize,
    col: usize,
) -> impl Iterator<Item = (usize, usize, char)> + '_ {
    lines[line..].iter().enumerate().flat_map(move |(k, info)| {
        let from = if k == 0 { col } else { 0 };
        info.code[from..]
            .char_indices()
            .map(move |(b, c)| (line + k, from + b, c))
            .chain([(line + k, info.code.len(), '\n')])
    })
}

/// Where the `(` sits that opens the argument or parameter list of the
/// name ending at byte `end` of line `line`: right after the name, or after
/// a `<..>` generic list or `::<..>` turbofish. `None` if there is none.
fn open_paren(lines: &[LineInfo], line: usize, end: usize) -> Option<(usize, usize)> {
    let rest = &lines[line].code[end..];
    if rest.starts_with('(') {
        return Some((line, end));
    }
    let generics = rest.strip_prefix("::").unwrap_or(rest);
    if !generics.starts_with('<') {
        return None;
    }
    let mut chars = code_from(lines, line, end + rest.len() - generics.len());
    let (mut depth, mut prev) = (0i32, ' ');
    for (_, _, c) in chars.by_ref() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            break;
        }
        prev = c;
    }
    match chars.next() {
        Some((l, b, '(')) => Some((l, b)),
        _ => None,
    }
}

/// The top-level items of the list whose `(` sits at byte `col` of line
/// `line`: each item's text and the `(line, byte)` of its first non-blank
/// char. Angle brackets nest only in a parameter list (`angles`), since an
/// argument may compare with `<`. `None` if the list does not close within
/// [`LIST_LINES`] lines.
fn split_list(
    lines: &[LineInfo],
    line: usize,
    col: usize,
    angles: bool,
) -> Option<Vec<(String, (usize, usize))>> {
    let mut items = Vec::new();
    let (mut cur, mut at) = (String::new(), None);
    let (mut depth, mut closure, mut prev) = (0usize, false, ' ');
    let mut push = |cur: &mut String, at: &mut Option<(usize, usize)>| {
        if let Some(at) = at.take() {
            items.push((std::mem::take(cur), at));
        }
        cur.clear();
    };
    for (l, b, c) in code_from(lines, line, col).skip(1) {
        if l > line + LIST_LINES {
            return None;
        }
        let arrow = prev == '-';
        prev = c;
        match c {
            // A closure's parameters are one list item with the closure.
            '|' if depth == 0 && (closure || matches!(cur.trim(), "" | "move")) => {
                closure = !closure;
            }
            '(' | '[' | '{' => depth += 1,
            '<' if angles => depth += 1,
            '>' if angles && !arrow => depth = depth.saturating_sub(1),
            ')' | ']' | '}' if depth == 0 => {
                push(&mut cur, &mut at);
                return Some(items);
            }
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 && !closure => {
                push(&mut cur, &mut at);
                continue;
            }
            _ => {}
        }
        if at.is_none() && !c.is_whitespace() {
            at = Some((l, b));
        }
        cur.push(c);
    }
    None
}

/// The literal an argument is, spelt without blanks: a number, `true`,
/// `false`, `None`, a (byte) string with its contents, or a unit path whose
/// last segment is capitalised (`Foo::Bar`). `None` for anything else.
fn literal(lexed: &Lexed, text: &str, (line, byte): (usize, usize)) -> Option<String> {
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let digits = compact.strip_prefix('-').unwrap_or(&compact);
    let is_number = digits.starts_with(|c: char| c.is_ascii_digit())
        && digits.chars().all(|c| is_ident(c) || c == '.');
    let segments: Vec<&str> = compact.split("::").collect();
    let is_unit_path = segments.len() > 1
        && segments
            .iter()
            .all(|s| !s.is_empty() && s.chars().all(is_ident))
        && segments[segments.len() - 1].starts_with(|c: char| c.is_uppercase());
    match compact.as_str() {
        "true" | "false" | "None" => Some(compact),
        _ if is_number || is_unit_path => Some(compact),
        "\"\"" | "b\"\"" | "r\"\"" | "br\"\"" => {
            let col = lexed.lines[line].code[..byte].chars().count();
            let lit = lexed
                .strings
                .iter()
                .find(|s| s.line == line + 1 && s.col == col)?;
            Some(format!("{}{:?}", &compact[..compact.len() - 2], lit.value))
        }
        _ => None,
    }
}

/// Where the code resumes after a `(..)` or `{..}` group that opens it at
/// byte `col` of line `line`, which may close lines later: the line and the
/// rest of it. Without a group, the code at `col` itself.
fn skip_group(lines: &[LineInfo], line: usize, col: usize) -> (usize, &str) {
    let code = &lines[line].code[col..];
    if !code.trim_start().starts_with(['(', '{']) {
        return (line, code);
    }
    let mut depth = 0usize;
    for (l, b, c) in code_from(lines, line, col) {
        if l > line + LIST_LINES {
            break;
        }
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (l, &lines[l].code[b + 1..]);
                }
            }
            _ => {}
        }
    }
    (line, "")
}

/// True if `=>` follows in `rest` before a `,` or `;` or the end of the
/// enclosing brackets.
fn arrow_follows(rest: &str) -> bool {
    let mut depth = 0usize;
    let mut chars = rest.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' if depth == 0 => return false,
            ')' | ']' | '}' => depth -= 1,
            ',' | ';' if depth == 0 => return false,
            '=' if depth == 0 && chars.peek() == Some(&'>') => return true,
            _ => {}
        }
    }
    false
}

/// True if `code` holds an assignment `=` (not `==`, `=>`, `!=`, `<=`, `>=`).
fn has_assign(code: &str) -> bool {
    let b = code.as_bytes();
    (0..b.len()).any(|i| {
        b[i] == b'='
            && !matches!(b.get(i + 1), Some(b'=' | b'>'))
            && !(i > 0 && matches!(b[i - 1], b'=' | b'!' | b'<' | b'>'))
    })
}

/// True if the variant path at `start..end` of line `line` is tested rather
/// than built: left of `=>`, in a `let` pattern, inside `matches!(`, in a
/// `|` list, or an operand of `==` or `!=`.
fn tests_variant(lines: &[LineInfo], line: usize, start: usize, end: usize) -> bool {
    let code = lines[line].code.as_str();
    let before = code[..start].trim_end().trim_end_matches('&').trim_end();
    let (last, rest) = skip_group(lines, line, end);
    let after = rest.trim_start();
    let next = lines.get(last + 1).map_or("", |l| l.code.trim_start());
    let in_let = ident_spans(before)
        .iter()
        .rev()
        .find(|(_, w)| *w == "let")
        .is_some_and(|&(at, _)| !has_assign(&code[at..start]));
    let in_matches = before
        .rfind("matches!(")
        .is_some_and(|m| code[m..start].matches('(').count() > code[m..start].matches(')').count());
    let in_or_list = (after.starts_with('|') && !after.starts_with("||"))
        || (after.is_empty() && next.starts_with("| "))
        || (code.trim_start().starts_with("| ") && !before.contains("=>"));
    ["==", "!="]
        .iter()
        .any(|op| before.ends_with(op) || after.starts_with(op))
        || in_or_list
        || in_let
        || in_matches
        || arrow_follows(rest)
}

/// Words after which a capitalised name is declared, not constructed.
const DECLARES: &[&str] = &[
    "struct", "enum", "type", "trait", "union", "impl", "mod", "const", "static", "for",
];

/// A009 (collection): every fn definition (tests included); a library
/// source's fn signatures and `pub enum` variants; and the calls and
/// variant constructions on the file's live lines (non-test, non-`use`).
fn collect_reach(ctx: &FileCtx, lexed: &Lexed, live: &[bool], cross: &mut CrossFile) {
    let lines = &lexed.lines;
    let site = |name: String, line: usize| NamedSite {
        name,
        path: ctx.rel.clone(),
        line,
    };
    let mut enum_body = vec![false; lines.len()];
    for (idx, info) in lines.iter().enumerate() {
        let api = ctx.is_api_src && live[idx];
        for pair in ident_spans(&info.code).windows(2) {
            let ((kw_at, kw), (at, name)) = (pair[0], pair[1]);
            if !info.code[kw_at + kw.len()..at].trim().is_empty() {
                continue;
            }
            let end = at + name.len();
            if kw == "fn" {
                *cross.fn_defs.entry(name.to_string()).or_default() += 1;
                // A fn without a body (an `extern` declaration) has a
                // foreign signature.
                let bodiless = code_from(lines, idx, end)
                    .map(|(_, _, c)| c)
                    .find(|c| matches!(c, '{' | ';'))
                    == Some(';');
                if !api || bodiless || item_waived(lexed, idx + 1, "A009") {
                    continue;
                }
                let Some(params) =
                    open_paren(lines, idx, end).and_then(|(l, b)| split_list(lines, l, b, true))
                else {
                    continue;
                };
                let params: Vec<String> = params
                    .into_iter()
                    .map(|(text, _)| {
                        let name = text.split(':').next().unwrap_or_default().trim();
                        name.strip_prefix("mut ").unwrap_or(name).to_string()
                    })
                    .collect();
                let has_self = params
                    .first()
                    .is_some_and(|p| has_word(p, "self") && !p.contains('('));
                cross.fn_sigs.push(FnSig {
                    site: site(name.to_string(), idx + 1),
                    params,
                    has_self,
                });
            } else if kw == "enum" && !enum_body[idx] {
                let public = api && info.code.trim_start().starts_with("pub enum ");
                // `expect`: a variant name comes next.
                let (mut depth, mut expect) = (0usize, false);
                for (l, b, c) in code_from(lines, idx, end) {
                    enum_body[l] = true;
                    match c {
                        '{' | '(' | '[' => {
                            depth += 1;
                            expect |= depth == 1;
                        }
                        '}' | ')' | ']' => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        ',' if depth == 1 => expect = true,
                        c if depth == 1 && expect && is_ident(c) => {
                            expect = false;
                            let code = &lines[l].code[b..];
                            let variant =
                                &code[..code.find(|c| !is_ident(c)).unwrap_or(code.len())];
                            if public && !item_waived(lexed, l + 1, "A009") {
                                cross
                                    .variants
                                    .push(site(format!("{name}::{variant}"), l + 1));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    for (idx, info) in lines.iter().enumerate() {
        if !live[idx] || enum_body[idx] {
            continue;
        }
        let code = info.code.as_str();
        let toks = ident_spans(code);
        for (k, &(at, word)) in toks.iter().enumerate() {
            let (before, end) = (&code[..at], at + word.len());
            let prev_word = k
                .checked_sub(1)
                .map(|p| toks[p])
                .filter(|&(p, w)| code[p + w.len()..at].trim().is_empty())
                .map(|(_, w)| w);
            if prev_word == Some("fn") {
                continue;
            }
            match open_paren(lines, idx, end).and_then(|(l, b)| split_list(lines, l, b, false)) {
                Some(args) => cross
                    .calls
                    .entry(word.to_string())
                    .or_default()
                    .push(CallSite {
                        method: before.ends_with('.'),
                        args: args
                            .iter()
                            .map(|(text, at)| literal(lexed, text, *at))
                            .collect(),
                    }),
                None if !code[end..].starts_with('!') => {
                    cross.uncalled.insert(word.to_string());
                }
                None => {}
            }
            if !word.starts_with(|c: char| c.is_uppercase())
                || code[end..].starts_with("::")
                || before.ends_with('.')
                || prev_word.is_some_and(|w| DECLARES.contains(&w))
            {
                continue;
            }
            let qualifier = before
                .strip_suffix("::")
                .map(|b| &b[b.trim_end_matches(is_ident).len()..])
                .unwrap_or_default();
            let mut start = at;
            while let Some(b) = code[..start].strip_suffix("::") {
                let seg = b.trim_end_matches(is_ident);
                if seg.len() == b.len() {
                    break;
                }
                start = seg.len();
            }
            if !tests_variant(lines, idx, start, end) {
                cross
                    .constructed
                    .insert((qualifier.to_string(), word.to_string()));
            }
        }
    }
}

/// A009: behaviour that no caller reaches.
///
/// (a) A variant of a library crate's `pub enum` that no non-test code
/// constructs: the arms that test for it run only in tests. A mention counts
/// as a construction unless it is left of `=>`, in a `let` pattern, inside
/// `matches!(`, in a `|` list, or an operand of `==`/`!=`.
///
/// (b) A parameter of a library fn that every non-test call site passes the
/// same literal: the other values run only in tests. Only fns whose name is
/// defined once in the workspace are checked, so that a call site can be
/// matched by its name, and only when every call fits the signature and the
/// name is never passed as a value.
pub fn check_unreached(cross: &CrossFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for v in &cross.variants {
        let (enum_name, variant) = v.name.split_once("::").unwrap_or(("", &v.name));
        let built = [enum_name, "Self", ""].iter().any(|q| {
            cross
                .constructed
                .contains(&(q.to_string(), variant.to_string()))
        });
        if !built {
            findings.push(Finding {
                path: v.path.clone(),
                line: v.line,
                rule: "A009",
                message: format!(
                    "variant `{}` is constructed by no non-test code; delete it and the \
                     arms that test for it, or make it `#[cfg(test)]`",
                    v.name
                ),
            });
        }
    }
    for sig in &cross.fn_sigs {
        let name = &sig.site.name;
        let Some(calls) = cross.calls.get(name) else {
            continue;
        };
        let receiver = |c: &CallSite| usize::from(sig.has_self && c.method);
        let fits = |c: &CallSite| {
            (sig.has_self || !c.method) && c.args.len() + receiver(c) == sig.params.len()
        };
        if cross.fn_defs.get(name) != Some(&1)
            || cross.uncalled.contains(name)
            || !calls.iter().all(fits)
        {
            continue;
        }
        for (p, param) in sig
            .params
            .iter()
            .enumerate()
            .skip(usize::from(sig.has_self))
        {
            let mut values = calls.iter().map(|c| c.args[p - receiver(c)].as_deref());
            let Some(Some(first)) = values.next() else {
                continue;
            };
            if values.all(|v| v == Some(first)) {
                findings.push(Finding {
                    path: sig.site.path.clone(),
                    line: sig.site.line,
                    rule: "A009",
                    message: format!(
                        "parameter `{param}` of `{name}` is `{first}` at every non-test call \
                         site ({}); delete it and the branches its other values select",
                        calls.len()
                    ),
                });
            }
        }
    }
    findings
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
