//! Fixture-driven tests: each rule must trip on its seeded-violation twin
//! under `fixtures/bad/` and stay silent on the clean twin under
//! `fixtures/good/`.

use abase_analysis::{analyze, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Analyze one fixture as if it lived at `rel` inside the workspace.
fn run_at(rel: &str, name: &str) -> Vec<Finding> {
    analyze(&[(PathBuf::from(rel), fixture(name))])
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn a001_trips_on_unjustified_unsafe() {
    let findings = run_at("crates/util/src/fixture.rs", "bad/a001_unsafe.rs");
    let a001: Vec<_> = findings.iter().filter(|f| f.rule == "A001").collect();
    assert_eq!(a001.len(), 2, "both unsafe sites flagged: {findings:?}");
    assert!(a001.iter().all(|f| f.message.contains("SAFETY")));
}

#[test]
fn a001_accepts_safety_comments() {
    let findings = run_at("crates/util/src/fixture.rs", "good/a001_unsafe.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a002_trips_on_unannotated_strong_orderings() {
    let findings = run_at("crates/util/src/fixture.rs", "bad/a002_ordering.rs");
    let a002: Vec<_> = findings.iter().filter(|f| f.rule == "A002").collect();
    assert_eq!(
        a002.len(),
        3,
        "SeqCst, Release, Acquire all flagged: {findings:?}"
    );
}

#[test]
fn a002_accepts_order_comments_and_ignores_relaxed_and_tests() {
    let findings = run_at("crates/util/src/fixture.rs", "good/a002_ordering.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a003_trips_in_hot_crate_src_only() {
    let hot = run_at("crates/lavastore/src/fixture.rs", "bad/a003_panics.rs");
    assert_eq!(rules_of(&hot), vec!["A003"], "{hot:?}");
    assert_eq!(hot.len(), 2, "unwrap and bare expect both flagged: {hot:?}");

    // The same source in a cold crate or in a test tree is out of scope.
    let cold = run_at("crates/workload/src/fixture.rs", "bad/a003_panics.rs");
    assert!(cold.is_empty(), "cold crates exempt from A003: {cold:?}");
    let test_tree = run_at("crates/lavastore/tests/fixture.rs", "bad/a003_panics.rs");
    assert!(
        test_tree.is_empty(),
        "tests exempt from A003: {test_tree:?}"
    );
}

#[test]
fn a003_accepts_invariant_annotations_and_lint_waivers() {
    let findings = run_at("crates/lavastore/src/fixture.rs", "good/a003_panics.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a004_trips_outside_shims_and_not_inside() {
    let findings = run_at("crates/core/src/fixture.rs", "bad/a004_std_sync.rs");
    let a004: Vec<_> = findings.iter().filter(|f| f.rule == "A004").collect();
    assert_eq!(a004.len(), 2, "use + inline RwLock flagged: {findings:?}");

    // The identical source inside the shim crate is the one allowed home.
    let shim = run_at(
        "crates/shims/parking_lot/src/fixture.rs",
        "bad/a004_std_sync.rs",
    );
    assert!(shim.is_empty(), "shims exempt from A004: {shim:?}");
}

#[test]
fn a004_accepts_shim_locks_atomics_and_channels() {
    let findings = run_at("crates/core/src/fixture.rs", "good/a004_std_sync.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a005_trips_on_each_naming_violation() {
    let findings = run_at("crates/obs/src/fixture.rs", "bad/a005_metrics.rs");
    let msgs: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "A005")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 4, "{findings:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("abase_") && m.contains("prefix")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("`abase_server_errors` must end in `_total`")));
    assert!(msgs.iter().any(|m| m.contains("unit suffix")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("gauge `abase_queue_depth_total`")));
}

#[test]
fn a005_accepts_conventional_names() {
    let findings = run_at("crates/obs/src/fixture.rs", "good/a005_metrics.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a006_trips_on_installed_but_never_checked_failpoint() {
    // The bad fixture installs "ghost.point" (no fire site) and
    // "wal.append"; pair it with the good fixture, whose hot path checks
    // wal.append, to prove only the ghost is flagged.
    let findings = analyze(&[
        (
            PathBuf::from("crates/chaos/src/fixture.rs"),
            fixture("bad/a006_failpoints.rs"),
        ),
        (
            PathBuf::from("crates/lavastore/src/fixture2.rs"),
            fixture("good/a006_failpoints.rs"),
        ),
    ]);
    let a006: Vec<_> = findings.iter().filter(|f| f.rule == "A006").collect();
    assert_eq!(a006.len(), 1, "{findings:?}");
    assert!(a006[0].message.contains("ghost.point"));
    assert!(a006[0].path.starts_with("crates/chaos"));
}

#[test]
fn a006_accepts_matched_install_and_check() {
    let findings = run_at("crates/lavastore/src/fixture.rs", "good/a006_failpoints.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

/// Analyze a metrics fixture next to its README twin.
fn run_a007(twin: &str) -> Vec<Finding> {
    analyze(&[
        (
            PathBuf::from("crates/demo/src/metrics.rs"),
            fixture(&format!("{twin}/a007_metrics.rs")),
        ),
        (
            PathBuf::from(abase_analysis::METRICS_README),
            fixture(&format!("{twin}/a007_README.md")),
        ),
    ])
}

#[test]
fn a007_trips_on_undocumented_and_on_undeclared_families() {
    let findings = run_a007("bad");
    assert_eq!(rules_of(&findings), vec!["A007"], "{findings:?}");
    assert_eq!(findings.len(), 2, "{findings:?}");
    // The ghost row is reported in the README, the hidden family at its
    // declaration.
    assert!(findings.iter().any(|f| f.path.ends_with("README.md")
        && f.line == 6
        && f.message.contains("abase_demo_ghost_total")));
    assert!(findings
        .iter()
        .any(|f| f.path.ends_with("metrics.rs") && f.message.contains("abase_demo_hidden_total")));
}

#[test]
fn a007_accepts_matching_tables_and_is_silent_without_a_readme() {
    let findings = run_a007("good");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
    // Declarations alone are nothing to compare: a scan that never saw the
    // README (a sub-tree, a single fixture) raises no A007.
    let alone = run_at("crates/demo/src/metrics.rs", "bad/a007_metrics.rs");
    assert!(alone.is_empty(), "{alone:?}");
}

#[test]
fn a_waiver_without_a_reason_waives_nothing() {
    let findings = run_at(
        "crates/lavastore/src/fixture.rs",
        "bad/waiver_without_reason.rs",
    );
    assert_eq!(rules_of(&findings), vec!["A003"], "{findings:?}");
    assert_eq!(findings.len(), 2, "bare and blank waivers: {findings:?}");
}

/// Analyze an A008 twin: the API file at `api_at`, next to its callers.
fn run_a008(twin: &str, api_at: &str) -> Vec<Finding> {
    let mut files = vec![
        (
            PathBuf::from(api_at),
            fixture(&format!("{twin}/a008_api.rs")),
        ),
        (
            PathBuf::from("crates/other/src/lib.rs"),
            fixture(&format!("{twin}/a008_callers.rs")),
        ),
    ];
    let extra = match twin {
        "bad" => ("crates/demo/tests/it.rs", "bad/a008_it.rs"),
        _ => ("abench/src/layers.rs", "good/a008_layers.rs"),
    };
    files.push((PathBuf::from(extra.0), fixture(extra.1)));
    analyze(&files)
}

/// The item names A008 flagged, in line order.
fn a008_names(findings: &[Finding]) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.rule == "A008")
        .filter_map(|f| f.message.split('`').nth(3))
        .collect()
}

#[test]
fn a008_trips_on_public_items_no_non_test_code_elsewhere_calls() {
    let findings = run_a008("bad", "crates/demo/src/api.rs");
    assert_eq!(rules_of(&findings), vec!["A008"], "{findings:?}");
    assert_eq!(
        a008_names(&findings),
        vec![
            "only_imported",
            "only_in_cfg_test",
            "only_in_tests_dir",
            "only_in_own_file",
            "REASONLESS_WAIVER",
            "BLANK_REASON",
        ],
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .all(|f| f.path == Path::new("crates/demo/src/api.rs")));
}

#[test]
fn a008_accepts_callers_waivers_and_narrow_items() {
    let findings = run_a008("good", "crates/demo/src/api.rs");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a008_skips_shims_bench_analysis_and_binaries() {
    for api_at in [
        "crates/shims/demo/src/lib.rs",
        "crates/bench/src/api.rs",
        "crates/analysis/src/api.rs",
        "crates/demo/src/main.rs",
        "crates/demo/src/bin/tool.rs",
        "src/lib.rs",
    ] {
        let findings = run_a008("bad", api_at);
        assert!(a008_names(&findings).is_empty(), "{api_at}: {findings:?}");
    }
}

/// Analyze an A009 twin: the enum and the fns, beside the benchmark's probe
/// surface for the good twin.
fn run_a009(twin: &str) -> Vec<Finding> {
    let mut files = vec![
        (
            PathBuf::from("crates/demo/src/kinds.rs"),
            fixture(&format!("{twin}/a009_variants.rs")),
        ),
        (
            PathBuf::from("crates/demo/src/params.rs"),
            fixture(&format!("{twin}/a009_params.rs")),
        ),
    ];
    if twin == "good" {
        files.push((
            PathBuf::from("abench/src/layers.rs"),
            fixture("good/a009_layers.rs"),
        ));
    }
    analyze(&files)
}

/// The variant or parameter each A009 finding names, in file and line order.
fn a009_names(findings: &[Finding]) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.rule == "A009")
        .filter_map(|f| f.message.split('`').nth(1))
        .collect()
}

#[test]
fn a009a_trips_on_variants_only_tests_construct_or_test_for() {
    let findings = run_a009("bad");
    assert_eq!(rules_of(&findings), vec!["A009"], "{findings:?}");
    let variants: Vec<_> = a009_names(&findings)
        .into_iter()
        .filter(|n| n.starts_with("Served::"))
        .collect();
    assert_eq!(
        variants,
        vec![
            "Served::OnlyInCfgTest",
            "Served::OnlyMatched",
            "Served::OnlyCompared",
            "Served::BlankReason",
        ],
        "{findings:?}"
    );
}

#[test]
fn a009b_trips_on_parameters_every_non_test_caller_passes_alike() {
    let findings = run_a009("bad");
    let params: Vec<_> = findings
        .iter()
        .filter(|f| f.message.starts_with("parameter"))
        .map(|f| {
            let ticks: Vec<&str> = f.message.split('`').collect();
            (ticks[1], ticks[3], ticks[5])
        })
        .collect();
    assert_eq!(
        params,
        vec![
            ("level", "configure", "3"),
            ("name", "configure", "\"wal\""),
            ("mode", "submit", "Mode::Fast"),
        ],
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .filter(|f| f.message.starts_with("parameter"))
        .all(|f| f.path == Path::new("crates/demo/src/params.rs")));
}

#[test]
fn a009_accepts_constructed_variants_differing_callers_and_waivers() {
    let findings = run_a009("good");
    assert!(
        findings.is_empty(),
        "clean twin must be silent: {findings:?}"
    );
}

#[test]
fn a009_skips_shims_bench_analysis_binaries_and_tests() {
    for at in [
        "crates/shims/demo/src/lib.rs",
        "crates/bench/src/api.rs",
        "crates/analysis/src/api.rs",
        "crates/demo/src/main.rs",
        "crates/demo/tests/it.rs",
        "src/lib.rs",
    ] {
        for twin in ["bad/a009_variants.rs", "bad/a009_params.rs"] {
            let findings = run_at(at, twin);
            assert!(a009_names(&findings).is_empty(), "{at}: {findings:?}");
        }
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    // The committed tree must stay lint-clean: this is the same invariant CI
    // enforces with `--deny` against the (empty) baseline.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let findings = abase_analysis::scan_workspace(root).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "workspace has un-baselined lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
