//! `abase-analysis`: a hand-rolled static analysis pass for this workspace.
//!
//! The workspace's concurrency core is hand-built (epoll event loop, striped
//! storage engine, group-commit WAL, replication sockets), so the invariants
//! that keep it correct live in comments and conventions rather than in the
//! type system. This crate mechanically enforces those conventions:
//!
//! * every `unsafe` block carries a `// SAFETY:` argument (A001);
//! * every non-`Relaxed` atomic ordering names its pairing site in an
//!   `// ORDER:` comment (A002);
//! * hot-crate production code never `.unwrap()`s and only `.expect(`s under
//!   an `// INVARIANT:` justification (A003);
//! * locking goes through the parking_lot shim / lockrank wrappers, never
//!   raw `std::sync` (A004);
//! * metric names follow the `abase_*` registry conventions (A005);
//! * every failpoint the chaos harness installs has a live fire site (A006);
//! * the metric tables in `crates/obs/README.md` name exactly the families
//!   the code declares (A007);
//! * every bare `pub fn`/`const`/`static` of a library crate is named by
//!   non-test code outside its own file (A008).
//!
//! There is no `syn`, no proc-macro machinery, and no crates.io dependency:
//! a small line lexer ([`lexer`]) blanks comments and strings so the rules
//! ([`rules`]) can work on honest substring matches.
//!
//! Run it as `cargo run -p abase-analysis -- --deny`. Known, justified
//! findings can be parked in a committed baseline file; the goal state (and
//! the current state) is an **empty** baseline.

pub mod lexer;
pub mod rules;

pub use rules::{check_failpoints, check_file, CrossFile, FileCtx, Finding, METRICS_README};

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned (build output, VCS, fixture corpora).
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "fixtures", "node_modules"];

/// Analyze a set of in-memory files (workspace-root-relative path, source).
///
/// This is the core entry point; [`scan_workspace`] is a thin walker on top
/// of it, and the fixture tests feed it synthetic trees directly.
pub fn analyze(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut cross = CrossFile::default();
    for (rel, src) in files {
        if rel == Path::new(METRICS_README) {
            rules::collect_documented_metrics(rel, src, &mut cross);
            continue;
        }
        let ctx = FileCtx::from_rel(rel);
        let lexed = lexer::lex(src);
        findings.extend(check_file(&ctx, &lexed, &mut cross));
    }
    findings.extend(check_failpoints(&cross));
    findings.extend(rules::check_metric_docs(&cross));
    findings.extend(rules::check_unused_api(&cross));
    findings.sort();
    findings
}

/// Walk `root` for `.rs` files (plus the metrics README, when the tree has
/// one) and run every rule over them.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    match fs::read_to_string(root.join(METRICS_README)) {
        Ok(text) => files.push((PathBuf::from(METRICS_README), text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(analyze(&files))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// The committed set of known findings, keyed by `rule path:line`.
#[derive(Debug, Default)]
pub struct Baseline {
    keys: BTreeSet<String>,
}

impl Baseline {
    /// Load a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let keys = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect();
        Ok(Baseline { keys })
    }

    /// Serialize `findings` as a baseline file.
    pub fn write(path: &Path, findings: &[Finding]) -> io::Result<()> {
        let mut text = String::from(
            "# abase-analysis baseline: one `RULE path:line` per line.\n\
             # Regenerate with `cargo run -p abase-analysis -- --write-baseline`.\n",
        );
        for f in findings {
            text.push_str(&f.key());
            text.push('\n');
        }
        fs::write(path, text)
    }

    /// True if `f` is already acknowledged.
    pub fn contains(&self, f: &Finding) -> bool {
        self.keys.contains(&f.key())
    }

    /// Baseline entries that no longer match any finding (fixed or drifted).
    pub fn stale<'a>(&'a self, findings: &[Finding]) -> Vec<&'a str> {
        let live: BTreeSet<String> = findings.iter().map(Finding::key).collect();
        self.keys
            .iter()
            .filter(|k| !live.contains(*k))
            .map(String::as_str)
            .collect()
    }

    /// Number of acknowledged findings.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the baseline acknowledges nothing (the goal state).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}
