//! Workload benchmark for the JOCL workspace, with per-layer attribution.
//!
//! ```text
//! bash perfbench/run.sh --workload batch|stream|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads, all on `JoclConfig` defaults with the residual LBP
//! schedule (the serving path), each drawing a `reverb45k_like` world
//! from `--seed`:
//!
//! * `batch` — cold `Jocl::run_with_signals` with weight learning
//!   ([`batch`]);
//! * `stream` — small `apply_ops` deltas against a warm
//!   `IncrementalJocl` session ([`stream`]);
//! * `serve` — the shipped `serve` binary as a writer child on a unix
//!   socket, one closed-loop writer and one closed-loop reader
//!   connection, then an in-process replica catching up ([`serve`]).
//!
//! With `--trace 0` a run reports the end-to-end metrics, measured with
//! tracing off; with `--trace 1` a separate traced run reports the
//! per-layer metrics. The end-to-end metrics are the same on every
//! workload; the "operation" behind `op_*` is the workload's unit of
//! work — one cold run, one delta, one socket write. Every run checks its
//! outputs and fails on any violation. The last stdout line is the JSON
//! result; the lines before it are a human-readable report.

mod batch;
mod common;
mod serve;
mod spans;
mod stream;

use common::Report;
use std::path::PathBuf;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: a tiny world, every check still on.
    pub tiny: bool,
    pub serve_bin: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        serve_bin: PathBuf::new(),
    };
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("a number in (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--serve-bin" => opts.serve_bin = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(opts.workload.as_str(), "batch" | "stream" | "serve") {
        return Err(format!("--workload must be batch, stream or serve, got {:?}", opts.workload));
    }
    if opts.workload == "serve" && !opts.serve_bin.is_file() {
        return Err(format!("serve binary not found at {:?} (pass --serve-bin)", opts.serve_bin));
    }
    Ok(opts)
}

/// The per-layer metrics, one field each. A workload fills the layers it
/// runs; a layer it bypasses reports zero work.
#[derive(Debug, Default)]
pub struct Layers {
    pub signals_s: f64,
    pub blocking_s: f64,
    pub blocking_pairs: f64,
    pub builder_s: f64,
    pub builder_vars: f64,
    pub builder_factors: f64,
    pub builder_triangles: f64,
    pub learn_s: f64,
    pub learn_epochs: f64,
    pub lbp_s: f64,
    pub lbp_message_updates: f64,
    pub decode_s: f64,
    pub incremental_s: f64,
    pub incremental_self_s: f64,
    pub incremental_updates_per_op: f64,
    pub incremental_affected_share: f64,
    pub incremental_heap_mb: f64,
    /// Mentions whose warm decode differs from a cold batch run on the
    /// same survivors.
    pub parity_diff: f64,
    pub write_busy_s: f64,
    pub read_busy_s: f64,
    pub write_overhead_ms: f64,
    pub read_overhead_ms: f64,
    pub feed_bytes: f64,
    pub restore_s: f64,
    pub snapshot_bytes: f64,
    pub catchup_s: f64,
    pub read_p50_ms: f64,
    pub read_p95_ms: f64,
    pub read_rps: f64,
    pub replica_catchup_s: f64,
    /// Share of the primary operation's time that named layers account
    /// for (`batch`: stage calls vs the traced run; `stream`/`serve`:
    /// child spans vs their `apply_ops` roots).
    pub attributed_share: f64,
    /// Traced over untraced end-to-end time.
    pub overhead_ratio: f64,
}

impl Layers {
    pub fn report(&self, r: &mut Report) {
        let rows: [(&'static str, f64, &'static str); 32] = [
            ("core.signals.busy_s", self.signals_s, "s"),
            ("core.blocking.busy_s", self.blocking_s, "s"),
            ("core.blocking.pairs", self.blocking_pairs, "count"),
            ("core.builder.busy_s", self.builder_s, "s"),
            ("core.builder.vars", self.builder_vars, "count"),
            ("core.builder.factors", self.builder_factors, "count"),
            ("core.builder.triangles", self.builder_triangles, "count"),
            ("fg.learn.busy_s", self.learn_s, "s"),
            ("fg.learn.epochs", self.learn_epochs, "count"),
            ("fg.lbp.busy_s", self.lbp_s, "s"),
            ("fg.lbp.message_updates", self.lbp_message_updates, "count"),
            ("core.decode.busy_s", self.decode_s, "s"),
            ("core.incremental.busy_s", self.incremental_s, "s"),
            ("core.incremental.self_s", self.incremental_self_s, "s"),
            ("core.incremental.updates_per_op", self.incremental_updates_per_op, "count"),
            ("core.incremental.affected_share", self.incremental_affected_share, "ratio"),
            ("core.incremental.heap_mb", self.incremental_heap_mb, "MB"),
            ("core.incremental.parity_diff", self.parity_diff, "count"),
            ("serve.engine.write_busy_s", self.write_busy_s, "s"),
            ("serve.engine.read_busy_s", self.read_busy_s, "s"),
            ("serve.write_overhead_ms", self.write_overhead_ms, "ms"),
            ("serve.read_overhead_ms", self.read_overhead_ms, "ms"),
            ("core.feed.bytes", self.feed_bytes, "bytes"),
            ("serve.snapshot.restore_s", self.restore_s, "s"),
            ("serve.snapshot.bytes", self.snapshot_bytes, "bytes"),
            ("serve.engine.catchup_s", self.catchup_s, "s"),
            ("serve.net.read_p50_ms", self.read_p50_ms, "ms"),
            ("serve.net.read_p95_ms", self.read_p95_ms, "ms"),
            ("serve.net.read_rps", self.read_rps, "1/s"),
            ("serve.replica_catchup_s", self.replica_catchup_s, "s"),
            ("trace.attributed_share", self.attributed_share, "ratio"),
            ("trace.overhead_ratio", self.overhead_ratio, "ratio"),
        ];
        for (name, value, unit) in rows {
            r.metric(name, value, unit);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match (opts.workload.as_str(), opts.trace) {
        ("batch", false) => batch::measure(&opts),
        ("batch", true) => batch::trace(&opts),
        ("stream", false) => stream::measure(&opts),
        ("stream", true) => stream::trace(&opts),
        ("serve", false) => serve::measure(&opts),
        _ => serve::trace(&opts),
    };
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        println!("CHECK FAILED: {v}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
