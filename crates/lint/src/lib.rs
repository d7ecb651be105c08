//! `jocl_lint` — the workspace invariant checker.
//!
//! The repo's correctness story rests on invariants no compiler checks:
//! bitwise-identical decodes across threads/schedules/replicas, the
//! PR-6 poison-recovery contract on every lock, the PR-8
//! one-serialization-path discipline for `query.v1`/`link.v1` frames,
//! and confinement of `JOCL_*` env knobs to `jocl_bench::env`. This
//! crate turns those from prose into machine-enforced lints: a
//! comments/strings-aware lexical scanner ([`lex`]), four rule families
//! ([`rules`]), and checked-in allowlists ([`allow`]) under `lint/` whose
//! entries are themselves validated for staleness. The one invariant the
//! compiler can check, "no `unsafe`", it does: the workspace lints set
//! `unsafe_code = "forbid"` for every crate.
//!
//! Entry point: [`lint_root`]. The `jocl-lint` bin wraps it with
//! `--deny` / `--explain <rule>`.

pub mod allow;
pub mod lex;
pub mod rules;

use allow::Entry;
use lex::{scan_source, ScannedFile};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Finding, Rule, ALL_RULES};

/// Outcome of linting one root.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lint the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml` and the `lint/` allowlists). Returns `Err`
/// only for I/O or allowlist-syntax errors — a malformed allowlist
/// must fail the run, not silently allow nothing.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    let paths = collect_rs_files(root)?;
    let mut files: BTreeMap<String, ScannedFile> = BTreeMap::new();
    for (rel, path) in &paths {
        let source = fs::read_to_string(path)
            .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
        files.insert(rel.clone(), scan_source(rel, &source));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut r1 = Vec::new();
    let mut r2 = Vec::new();
    let mut r4 = Vec::new();
    let mut r5 = Vec::new();
    for f in files.values() {
        r1.extend(rules::check_env_confinement(f));
        r2.extend(rules::check_poison_recovery(f));
        r4.extend(rules::check_determinism(f));
        r5.extend(rules::check_wire_path(f));
    }
    for (rule, batch) in [
        (Rule::EnvConfinement, r1),
        (Rule::PoisonRecovery, r2),
        (Rule::Determinism, r4),
        (Rule::WirePath, r5),
    ] {
        let entries = load_entries(root, rule)?;
        findings.extend(apply_allowlist(batch, &entries, &files, rule));
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report { findings, files_scanned: files.len() })
}

/// All `.rs` files under `root`, as (root-relative `/`-separated path,
/// absolute path), sorted. Skips `target/`, `vendor/` (shim crates are
/// not ours to lint), dot-directories, and the lint fixture corpus
/// (fixture trees are linted by pointing `lint_root` *at* them).
fn collect_rs_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack: Vec<(String, PathBuf)> = vec![(String::new(), root.to_path_buf())];
    while let Some((rel, dir)) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("{}: read_dir failed: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let child_rel = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
            let path = entry.path();
            if path.is_dir() {
                if name == "target"
                    || name == "vendor"
                    || name.starts_with('.')
                    || child_rel == "crates/lint/tests/fixtures"
                {
                    continue;
                }
                stack.push((child_rel, path));
            } else if name.ends_with(".rs") {
                out.push((child_rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Root-relative display path of a rule's allowlist file.
fn allowlist_rel(rule: Rule) -> String {
    format!("lint/{}", rule.allowlist_file().expect("rule with allowlist"))
}

fn load_entries(root: &Path, rule: Rule) -> Result<Vec<Entry>, String> {
    let Some(name) = rule.allowlist_file() else { return Ok(Vec::new()) };
    let path = root.join("lint").join(name);
    match fs::read_to_string(&path) {
        Ok(s) => allow::parse_entries(&path, &s),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: read failed: {e}", path.display())),
    }
}

/// Filter `batch` through an allowlist; unmatched entries (or entries
/// with the wrong match count) become `LINT` findings at the entry's
/// own line, so allowlists cannot rot.
fn apply_allowlist(
    batch: Vec<Finding>,
    entries: &[Entry],
    files: &BTreeMap<String, ScannedFile>,
    rule: Rule,
) -> Vec<Finding> {
    let mut matched = vec![0usize; entries.len()];
    let mut kept = Vec::new();
    'findings: for f in batch {
        for (i, e) in entries.iter().enumerate() {
            if e.file == f.file {
                let raw = files.get(&f.file).map_or("", |sf| sf.raw_line(f.line));
                if raw.contains(&e.context) {
                    matched[i] += 1;
                    continue 'findings;
                }
            }
        }
        kept.push(f);
    }
    kept.extend(staleness(entries, &matched, rule));
    kept
}

/// Staleness findings for entries whose match counts are off.
fn staleness(entries: &[Entry], matched: &[usize], rule: Rule) -> Vec<Finding> {
    let mut out = Vec::new();
    for (e, &n) in entries.iter().zip(matched) {
        let msg = if n == 0 {
            format!(
                "stale {} entry: no current {} site matches file {:?} context {:?}",
                allowlist_rel(rule),
                rule.id(),
                e.file,
                e.context
            )
        } else if e.count.is_some_and(|want| want != n) {
            format!(
                "{} entry for {:?} matches {n} site(s), `count` says {}",
                allowlist_rel(rule),
                e.context,
                e.count.unwrap_or(0)
            )
        } else {
            continue;
        };
        out.push(Finding {
            rule: Rule::Config,
            file: allowlist_rel(rule),
            line: e.defined_at,
            msg,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_reports_zero_and_miscounted_entries() {
        let entries = vec![
            Entry {
                file: "a.rs".into(),
                context: "gone".into(),
                reason: "r".into(),
                count: None,
                defined_at: 3,
            },
            Entry {
                file: "b.rs".into(),
                context: "twice".into(),
                reason: "r".into(),
                count: Some(2),
                defined_at: 8,
            },
        ];
        let out = staleness(&entries, &[0, 1], Rule::Determinism);
        assert_eq!(out.len(), 2);
        assert!(out[0].msg.contains("stale"), "{}", out[0].msg);
        assert_eq!(out[0].file, "lint/r4_determinism.toml");
        assert_eq!(out[0].line, 3);
        assert!(out[1].msg.contains("`count` says 2"), "{}", out[1].msg);
        let clean = staleness(&entries, &[1, 2], Rule::Determinism);
        assert!(clean.is_empty());
    }
}
