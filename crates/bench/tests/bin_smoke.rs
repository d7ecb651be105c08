//! Smoke tests: every experiment binary must parse its env config and
//! run end-to-end on a tiny `jocl_datagen` world, and reject arguments
//! it does not know.
//!
//! The end-to-end runs are guarded behind `--ignored` because each
//! executes a full, if miniature, experiment:
//!
//! ```text
//! cargo test -p jocl_bench --test bin_smoke -- --ignored
//! ```

use std::process::Command;

/// Run one compiled experiment binary at minimal scale and return stdout.
fn run_bin(exe: &str) -> String {
    let out = Command::new(exe)
        // ~90x smaller world than the default experiment scale.
        .env("JOCL_SCALE", "0.002")
        .env("JOCL_SEED", "5")
        // Skip weight learning: smoke tests check plumbing, not quality.
        .env("JOCL_TRAIN_EPOCHS", "0")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output must be utf8")
}

/// A mistyped flag must never run anything: `serve --replcia` would boot
/// a *writer* over a replica's feed directory, and `bench_regression
/// --updte` would gate instead of recording. Both bins reject unknown
/// arguments with their usage line, before generating any data — which
/// is also why this test is fast enough to run unignored.
#[test]
fn unknown_arguments_exit_with_usage() {
    for (exe, bad, usage) in [
        (env!("CARGO_BIN_EXE_serve"), "--replcia", "usage: serve [--replica]"),
        (env!("CARGO_BIN_EXE_bench_regression"), "--updte", "usage: bench_regression [--update]"),
        (env!("CARGO_BIN_EXE_bench_regression"), "--json", "--json needs a path"),
    ] {
        let out = Command::new(exe)
            .arg(bad)
            .env("JOCL_SCALE", "0.002")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {bad}: stderr:\n{stderr}");
        assert!(stderr.contains(usage), "{exe} {bad}: stderr lacks {usage:?}:\n{stderr}");
        assert!(out.stdout.is_empty(), "{exe} {bad} must stop before any work");
    }
}

macro_rules! smoke {
    ($name:ident, $bin:literal, $expect:literal) => {
        #[test]
        #[ignore = "miniature but complete experiment; run with -- --ignored"]
        fn $name() {
            let stdout = run_bin(env!(concat!("CARGO_BIN_EXE_", $bin)));
            assert!(stdout.contains($expect), "{} output missing {:?}:\n{}", $bin, $expect, stdout);
        }
    };
}

smoke!(table1_runs, "table1", "Table 1");
smoke!(table2_runs, "table2", "Table 2");
smoke!(table3_runs, "table3", "Table 3");
smoke!(table4_runs, "table4", "Table 4");
smoke!(table5_fig4_runs, "table5_fig4", "Table 5");
smoke!(fig3_runs, "fig3", "Figure 3");
smoke!(fig2_convergence_runs, "fig2_convergence", "Figure 2");
smoke!(stream_runs, "stream", "PARITY ok");

/// The `serve` bin drives its full command vocabulary over stdin:
/// ingest, content- and id-addressed retraction, revision, phrase
/// queries, snapshot/restore through `JOCL_SNAPSHOT_DIR`, and manual
/// compaction.
#[test]
#[ignore = "miniature but complete experiment; run with -- --ignored"]
fn serve_runs() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("jocl-serve-smoke-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env("JOCL_SCALE", "0.002")
        .env("JOCL_SEED", "5")
        .env("JOCL_TRAIN_EPOCHS", "0")
        .env("JOCL_SNAPSHOT_DIR", &dir)
        .env("JOCL_COMPACT_THRESHOLD", "0.5")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(
            b"ingest 25\n\
              add Acme Corp | be base in | Springfield\n\
              retract #2\n\
              revise #3 => Foo Inc | be locate in | Bar City\n\
              query foo inc\n\
              snapshot\n\
              restore\n\
              ingest 10\n\
              compact\n\
              stats\n\
              quit\n",
        )
        .expect("write script");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for expect in ["snapshot written", "restored warm", "[COMPACTED]", "Foo Inc", "SERVE ok"] {
        assert!(stdout.contains(expect), "serve output missing {expect:?}:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With `JOCL_LISTEN` the same bin becomes the socket front-end: this
/// drives the line protocol over a unix socket — framed `OK`/`ERR`
/// responses, a malformed line surviving as a typed error, `shutdown`
/// stopping the server — and checks the `NET ok` epilogue.
#[test]
#[ignore = "miniature but complete experiment; run with -- --ignored"]
fn serve_listens() {
    use jocl_serve::{ErrCode, Response};
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("jocl-serve-net-smoke-{}", std::process::id()));
    let sock = dir.join("serve.sock");
    std::fs::create_dir_all(&dir).unwrap();
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .env("JOCL_SCALE", "0.002")
        .env("JOCL_SEED", "5")
        .env("JOCL_TRAIN_EPOCHS", "0")
        .env("JOCL_SNAPSHOT_DIR", &dir)
        .env("JOCL_LISTEN", format!("unix:{}", sock.display()))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The world builds before the listener comes up; poll for the socket.
    let deadline = Instant::now() + Duration::from_secs(60);
    let stream = loop {
        match UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("serve never listened on {}: {e}", sock.display()),
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    // Frames are decoded through the one serialization path (R5): the
    // client never pattern-matches raw "OK "/"ERR " literals itself.
    let mut request = |line: &str| -> Response {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        Response::read_from(&mut reader).expect("well-formed response frame")
    };
    let ok = |resp: Response| -> Vec<String> {
        match resp {
            Response::Ok(lines) => lines,
            Response::Err(e) => panic!("expected an OK frame, got {e}"),
        }
    };
    let err_code = |resp: Response| -> ErrCode {
        match resp {
            Response::Err(e) => e.code,
            Response::Ok(lines) => panic!("expected an ERR frame, got OK {lines:?}"),
        }
    };

    let ingested = ok(request("ingest 20")).join("\n");
    assert!(ingested.contains("ingest 20"), "{ingested}");
    let added = ok(request("add Acme Corp | be base in | Springfield")).join("\n");
    assert!(added.contains("+1 -0"), "{added}");
    assert_eq!(err_code(request("retract #99999")), ErrCode::BadId);
    assert_eq!(err_code(request("no such command")), ErrCode::Unknown);
    let stats = ok(request("stats")).join("\n");
    assert!(stats.contains("triples=21") && stats.contains("version="), "{stats}");
    let metrics = ok(request("metrics"));
    jocl_serve::parse_metrics(&metrics).expect("well-formed metrics frame");
    let query = ok(request("query acme corp")).join("\n");
    assert!(query.contains("Acme Corp"), "{query}");
    assert_eq!(ok(request("shutdown")), ["shutting down"]);

    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for expect in ["listening on unix:", "NET ok: 1 connections", "SERVE ok"] {
        assert!(stdout.contains(expect), "serve output missing {expect:?}:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
