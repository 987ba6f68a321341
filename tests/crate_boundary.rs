//! The shipped/simulated boundary, checked from the manifests: every
//! `abase-*` crate a shipped crate depends on is itself shipped. Since each
//! shipped crate's direct dependencies are shipped, so are its transitive
//! ones, and nothing `abase-server` links pulls in the simulator, the
//! scheduler, the forecaster or the workload generators.

use std::path::Path;

/// The crates `abase-server` is built from (under `crates/`).
const SHIPPED: &[&str] = &[
    "util",
    "obs",
    "proto",
    "cache",
    "quota",
    "lavastore",
    "replication",
    "core",
];

/// The package names under `[dependencies]` in `manifest` (dev- and
/// build-dependencies are not linked into the server).
fn dependencies(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line.split(['.', '=', ' ']).next().unwrap_or_default();
        out.push(name.to_string());
    }
    out
}

#[test]
fn shipped_crates_depend_only_on_shipped_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for name in SHIPPED {
        let path = root.join("crates").join(name).join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let deps = dependencies(&manifest);
        assert!(!deps.is_empty(), "{name}: no dependencies parsed");
        for dep in deps {
            if let Some(crate_name) = dep.strip_prefix("abase-") {
                if !SHIPPED.contains(&crate_name) {
                    violations.push(format!("abase-{name} depends on {dep}"));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "shipped crates depend on unshipped ones: {violations:?}"
    );
}

#[test]
fn the_dependency_parser_reads_only_the_dependencies_table() {
    let manifest = "[package]\nname = \"abase-x\"\n\n[dependencies]\n\
                    abase-util.workspace = true\nbytes = { path = \"b\" }\n\
                    # a comment\n\n[dev-dependencies]\nabase-sim.workspace = true\n";
    assert_eq!(dependencies(manifest), ["abase-util", "bytes"]);
}
