//! Tiny-scale self-test: every workload, untraced and traced, on tiny
//! worlds with every correctness check on, so the benchmark cannot rot
//! silently. Each run must pass its checks and print exactly the metric
//! names `BENCHMARK.json` declares for its mode.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The `serve` workload needs the shipped `serve` binary; the test builds
//! it from the repository root (into the repository's own target
//! directory unless `CARGO_TARGET_DIR` says otherwise).

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").into()
}

fn serve_bin() -> PathBuf {
    let root = repo_root();
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "-p", "jocl_bench", "--bin", "serve"])
        .current_dir(&root)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the serve binary failed");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() { target } else { root.join(target) };
    target.join("release").join("serve")
}

/// Metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: bool, serve: &Path) {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-run");
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--serve-bin")
        .arg(serve)
        .current_dir(&scratch)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    let names = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(last.matches("\"unit\"").count(), names.len(), "metric count: {last}");
    for name in names {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {last}");
    }
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    let serve = serve_bin();
    for workload in ["batch", "stream", "serve"] {
        for trace in [false, true] {
            run(workload, trace, &serve);
        }
    }
}
