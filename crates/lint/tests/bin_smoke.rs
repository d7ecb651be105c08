//! End-to-end smoke of the `jocl-lint` bin (the satellite requirement):
//! `--deny` exits 0 on the real tree, non-zero on a violating tree, and
//! `--explain` renders each rule's contract.
//!
//! Guarded behind `--ignored` like the other bin smokes:
//!
//! ```text
//! cargo test -p jocl-lint --test bin_smoke -- --ignored
//! ```

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_jocl-lint");

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn jocl-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
#[ignore = "drives the compiled bin on the whole workspace; run with -- --ignored"]
fn deny_gates_the_workspace_and_fixtures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.to_str().expect("utf8 path");
    let (code, stdout, stderr) = run(&["--deny", "--root", root]);
    assert_eq!(code, Some(0), "clean tree gates green\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");

    let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad");
    let bad = bad.to_str().expect("utf8 path");
    let (code, stdout, _) = run(&["--deny", "--root", bad]);
    assert_eq!(code, Some(1), "violations gate red under --deny\n{stdout}");
    for needle in [
        "[R1 env-confinement]",
        "[R2 poison-recovery]",
        "[R4 determinism]",
        "[R5 one-serialization-path]",
        "fix:",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    // Without --deny the same findings are advisory: printed, exit 0.
    let (code, stdout, _) = run(&["--root", bad]);
    assert_eq!(code, Some(0), "advisory mode never gates\n{stdout}");
    assert!(stdout.contains("advisory"), "{stdout}");
}

#[test]
#[ignore = "drives the compiled bin; run with -- --ignored"]
fn explain_renders_rule_contracts() {
    let (code, stdout, _) = run(&["--explain", "R4"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("determinism") && stdout.contains("lint/r4_determinism.toml"),
        "{stdout}"
    );

    let (code, stdout, _) = run(&["--explain", "all"]);
    assert_eq!(code, Some(0));
    for id in ["R1", "R2", "R4", "R5", "LINT"] {
        assert!(stdout.contains(&format!("{id} ")), "missing {id} in:\n{stdout}");
    }
    assert!(!stdout.contains("R3 "), "R3 is retired (rustc forbids unsafe):\n{stdout}");

    let (code, _, stderr) = run(&["--explain", "bogus"]);
    assert_eq!(code, Some(2), "unknown rule is a usage error");
    assert!(stderr.contains("unknown rule"), "{stderr}");
}
