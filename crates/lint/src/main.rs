//! `jocl-lint` — run the workspace invariant checker.
//!
//! ```text
//! cargo run -p jocl-lint -- --deny            # gate: exit 1 on any finding
//! cargo run -p jocl-lint --                   # advisory: print, exit 0
//! cargo run -p jocl-lint -- --explain R4      # rule contract + fix hint
//! cargo run -p jocl-lint -- --root <dir>      # lint another tree (fixtures)
//! ```
//!
//! Exit codes: 0 clean (or advisory), 1 findings under `--deny`,
//! 2 usage / configuration error (malformed allowlist, I/O failure).

use jocl_lint::{lint_root, Rule, ALL_RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: jocl-lint [--deny] [--root <dir>] [--explain <rule>|all]\n\
    rules: R1 env-confinement, R2 poison-recovery, R4 determinism,\n\
           R5 one-serialization-path, LINT lint-config";

fn main() -> ExitCode {
    let mut deny = false;
    let mut root: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => return usage_error("--explain needs a rule id or name"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(query) = explain {
        return explain_rules(&query);
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("jocl-lint: no workspace root found (run from the repo or pass --root)");
            return ExitCode::from(2);
        }
    };
    match lint_root(&root) {
        Err(e) => {
            eprintln!("jocl-lint: configuration error: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
                println!("    fix: {}", f.rule.hint());
            }
            let n = report.findings.len();
            println!(
                "jocl-lint: {n} finding(s) in {} file(s) under {}{}",
                report.files_scanned,
                root.display(),
                if n > 0 && !deny { " (advisory; --deny to gate)" } else { "" }
            );
            if n > 0 && deny {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("jocl-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn explain_rules(query: &str) -> ExitCode {
    let rules: Vec<Rule> = if query.eq_ignore_ascii_case("all") {
        ALL_RULES.to_vec()
    } else {
        match Rule::from_query(query) {
            Some(r) => vec![r],
            None => return usage_error(&format!("unknown rule {query:?}")),
        }
    };
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{} {}", r.id(), r.name());
        println!("  {}", r.explain());
        println!("  fix: {}", r.hint());
        if let Some(f) = r.allowlist_file() {
            println!("  allowlist: lint/{f}");
        }
    }
    ExitCode::SUCCESS
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`; fall back to the compile-time checkout.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(PathBuf::from);
    }
    let baked = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    baked.canonicalize().ok().filter(|p| p.join("Cargo.toml").is_file())
}
