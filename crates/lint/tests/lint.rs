//! Rule coverage against the fixture corpus — at least one violating
//! and one conforming sample per rule family — plus the
//! allowlist-staleness contract and a live run over the real workspace
//! (the same gate CI's `lint` job enforces through the bin).

use jocl_lint::{lint_root, Finding, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("  {f}\n")).collect()
}

#[test]
fn bad_fixture_trips_every_rule() {
    let report = lint_root(&fixture("bad")).expect("bad fixture lints");
    let has = |rule: Rule, file: &str, line: usize| {
        report.findings.iter().any(|f| f.rule == rule && f.file == file && f.line == line)
    };
    let all = render(&report.findings);
    assert!(has(Rule::EnvConfinement, "crates/demo/src/lib.rs", 5), "R1 missing:\n{all}");
    assert!(has(Rule::PoisonRecovery, "crates/demo/src/lib.rs", 9), "R2 missing:\n{all}");
    assert!(has(Rule::Determinism, "crates/kb/src/side.rs", 8), "R4 missing:\n{all}");
    assert!(has(Rule::WirePath, "crates/demo/src/wire.rs", 5), "R5 missing:\n{all}");
    assert_eq!(report.findings.len(), 4, "exactly the seeded violations:\n{all}");
}

#[test]
fn clean_fixture_is_quiet() {
    let report = lint_root(&fixture("clean")).expect("clean fixture lints");
    assert!(
        report.findings.is_empty(),
        "conforming samples must not be flagged:\n{}",
        render(&report.findings)
    );
    assert!(report.files_scanned >= 4, "all fixture files scanned");
}

#[test]
fn stale_allowlist_entries_fail_the_run() {
    let report = lint_root(&fixture("stale")).expect("stale fixture lints");
    let all = render(&report.findings);
    assert_eq!(report.findings.len(), 2, "both rotted entries reported:\n{all}");
    assert!(
        report.findings.iter().all(|f| f.rule == Rule::Config && f.file == "lint/r2_locks.toml"),
        "findings anchor the allowlist file itself:\n{all}"
    );
    assert!(
        report.findings.iter().any(|f| f.msg.contains("`count` says 2")),
        "miscount reported:\n{all}"
    );
    assert!(report.findings.iter().any(|f| f.msg.contains("stale")), "rot reported:\n{all}");
    // The allowlisted violation itself is suppressed — the only noise
    // is the allowlist rot.
    assert!(
        !report.findings.iter().any(|f| f.rule == Rule::PoisonRecovery),
        "matched entry suppresses its finding:\n{all}"
    );
}

#[test]
fn malformed_allowlist_is_a_hard_error() {
    let dir = std::env::temp_dir().join(format!("jocl-lint-bad-toml-{}", std::process::id()));
    let lint_dir = dir.join("lint");
    std::fs::create_dir_all(&lint_dir).unwrap();
    std::fs::write(lint_dir.join("r1_env.toml"), "[[allow]]\nfile = unquoted\n").unwrap();
    let err = lint_root(&dir).expect_err("malformed allowlist must fail the run");
    assert!(err.contains("double-quoted"), "syntax error surfaced: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The live gate: the real workspace must lint clean. This runs in the
/// ordinary test matrix (not `--ignored`), so re-introducing a raw
/// `JOCL_*` read, a lock unwrap or a stray wire literal fails
/// `cargo test` even before the CI lint job.
#[test]
fn real_workspace_is_clean() {
    let report = lint_root(&workspace_root()).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "the workspace must satisfy its own invariants:\n{}",
        render(&report.findings)
    );
    assert!(report.files_scanned > 50, "the whole workspace was scanned");
}

/// `unsafe` is rejected by rustc, not by a text scan: the workspace
/// lints forbid `unsafe_code`, and the root package and every crate
/// under `crates/` inherit them, so a new crate cannot opt out by
/// omission. (`vendor/` shims are not ours to lint.)
#[test]
fn every_crate_inherits_the_unsafe_code_forbid() {
    let root = workspace_root();
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    // Lines of one `[section]` of a manifest, trimmed, blank and comment
    // lines dropped.
    let section = |manifest: &str, name: &str| -> Vec<String> {
        let header = format!("[{name}]");
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect()
    };
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        section(&root_manifest, "workspace.lints.rust")
            .contains(&"unsafe_code = \"forbid\"".into()),
        "the root Cargo.toml must set [workspace.lints.rust] unsafe_code = \"forbid\""
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 14, "every crate found: {crates:?}");
    manifests.extend(crates);
    for manifest in manifests {
        assert!(
            section(&read(&manifest), "lints").contains(&"workspace = true".into()),
            "{} must carry `[lints] workspace = true`",
            manifest.display()
        );
    }
}
