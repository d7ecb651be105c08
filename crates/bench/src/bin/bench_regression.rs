//! **bench-regression** — the CI perf gate.
//!
//! Re-times the seven hot-path metrics the project optimizes for
//! (`lbp_sweep`, `graph_build`, `end_to_end`, `train`, `delta_ingest`,
//! `snapshot_restore`, `replica_catchup`) with median-of-N wall-clock
//! sampling, then compares them against the
//! checked-in `BENCH_BASELINE.json` at the repository root. Any metric
//! slower than `baseline × (1 + tolerance)` fails the process (exit 1),
//! so speedups stop being anecdotes in `BENCH_NOTES.md`: regressing one
//! turns the CI job red.
//!
//! ```text
//! cargo run --release -p jocl_bench --bin bench_regression            # gate
//! cargo run --release -p jocl_bench --bin bench_regression -- --update # refresh
//! scripts/update_bench_baseline.sh                                    # ditto
//! cargo run --release -p jocl_bench --bin bench_regression -- --json out.json
//!                                       # gate + archive the measurements
//! ```
//!
//! The baseline and the gated run rarely share hardware (laptop vs CI
//! runner, or two differently-loaded shared VMs), so raw nanoseconds
//! are not comparable across them. Every run therefore also times a
//! **calibration workload** — a fixed pure-arithmetic loop that tracks
//! CPU speed but deliberately shares no code with the gated kernels, so
//! a real LBP/graph-build regression cannot hide in the denominator —
//! and the gate compares *calibrated* ratios:
//! `(metric / calibration) vs (baseline_metric / baseline_calibration)`.
//! One calibration sample is taken beside every metric sample, and the
//! denominator is the median of all of them: on a shared machine whose
//! load drifts during the run, a single burst of calibration samples
//! would decide the verdict by itself.
//!
//! Since PR 7 the gate also covers **memory**: `session_heap_bytes`
//! (accounted resident bytes of the warm serving session) and
//! `snapshot_bytes` (its snapshot envelope), plus `peak_memory_kb`
//! (`VmHWM` from `/proc/self/status` where available). Byte counts are
//! machine-independent, so they are compared **raw** — no calibration
//! ratio — which makes them the sharpest regression tripwires here.
//!
//! Knobs: `JOCL_BENCH_TOLERANCE` (relative slack, default `0.30`;
//! timings are medians and calibration absorbs first-order machine
//! differences, so the gate only trips on real regressions) and
//! `JOCL_BENCH_BASELINE` (alternate baseline path). Refresh the
//! baseline deliberately via the script, never by hand-editing.

use jocl_bench::runner::validation_labels;
use jocl_core::signals::build_signals;
use jocl_core::{block_pairs, build_graph, Jocl, JoclConfig};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{train, FactorGraph, LbpOptions, Params, Potential, TrainOptions, VarId};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Wall-clock ns of one run of `f`.
fn time_ns(f: &mut impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Middle value of `times` (the upper one of two for an even count).
fn median(mut times: Vec<u64>) -> u64 {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Calibration workload: a fixed xorshift + floating-point loop. Pure
/// ALU/FPU, no allocation, no repo code — it scales with the machine's
/// single-thread speed (what every gated metric runs on) but cannot be
/// sped up or slowed down by changes to this workspace.
fn calibration_workload() {
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64) * 1e-18;
    }
    black_box(acc);
}

/// Median wall-clock ns of `f` over `samples` runs after one warm-up.
/// Each run is followed by one run of the calibration workload, whose
/// time is pushed onto `calibration`.
fn median_ns(samples: usize, calibration: &mut Vec<u64>, mut f: impl FnMut()) -> u64 {
    f();
    let times = (0..samples)
        .map(|_| {
            let t = time_ns(&mut f);
            calibration.push(time_ns(&mut calibration_workload));
            t
        })
        .collect();
    median(times)
}

/// A ring of `n` 4-state variables with dense pairwise factors — the
/// `lbp_sweep` workload.
fn build_ring(n: usize) -> (FactorGraph, Params) {
    let mut g = FactorGraph::new();
    let mut params = Params::new();
    let grp = params.add_group_with(vec![1.0]);
    let vars: Vec<VarId> = (0..n).map(|_| g.add_var(4)).collect();
    for i in 0..n {
        let j = (i + 1) % n;
        let scores: Vec<f64> = (0..16).map(|x| (x % 5) as f64 * 0.2).collect();
        g.add_factor(&[vars[i], vars[j]], Potential::Scores { group: grp, scores }, 0);
    }
    (g, params)
}

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux. Recorded after the timed
/// workloads so it covers the full measured footprint.
fn peak_memory_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Units-aware push helpers: wall-clock medians compare via the
/// calibration ratio; byte counts are machine-independent and compare
/// raw.
trait PushMetric {
    fn push_calibrated(&mut self, metric: (&'static str, u64));
    fn push_raw(&mut self, metric: (&'static str, u64));
}

impl PushMetric for Vec<(&'static str, u64, bool)> {
    fn push_calibrated(&mut self, (name, value): (&'static str, u64)) {
        self.push((name, value, true));
    }
    fn push_raw(&mut self, (name, value): (&'static str, u64)) {
        self.push((name, value, false));
    }
}

/// The gated metrics: `(name, value, calibrated)`. Every metric sample
/// also pushes one calibration sample onto `calibration`.
fn measure(calibration: &mut Vec<u64>) -> Vec<(&'static str, u64, bool)> {
    let mut metrics: Vec<(&'static str, u64, bool)> = Vec::new();

    // lbp_sweep: 10 synchronous iterations (the fused per-factor batch
    // update every schedule shares) over the 400-var ring.
    let (g, params) = build_ring(400);
    let opts = LbpOptions { max_iters: 10, ..Default::default() };
    metrics.push_calibrated((
        "lbp_sweep",
        median_ns(15, calibration, || {
            let mut eng = LbpEngine::new(&g);
            black_box(eng.run(&params, &opts));
        }),
    ));

    // graph_build + end_to_end share one dataset and its signals.
    let dataset = reverb45k_like(5, 0.005);
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, ..Default::default() },
    );
    let config = JoclConfig::default();
    let blocking = block_pairs(&dataset.okb, &signals, &config);
    metrics.push_calibrated((
        "graph_build",
        median_ns(7, calibration, || {
            black_box(build_graph(&dataset.okb, &dataset.ckb, &signals, &blocking, &config));
        }),
    ));

    let input = jocl_core::JoclInput {
        okb: &dataset.okb,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };
    let e2e_config = JoclConfig { train_epochs: 0, ..Default::default() };
    metrics.push_calibrated((
        "end_to_end",
        median_ns(7, calibration, || {
            black_box(Jocl::new(e2e_config.clone()).run_with_signals(input, &signals, None));
        }),
    ));

    // train: weight learning (paper §3.4) on the end_to_end graph, which
    // `end_to_end` itself skips (`train_epochs: 0`). Two epochs of one
    // clamped + one free residual LBP run each, clamped to the gold
    // labels of a 20% validation split; `grad_tol: 0` keeps the epoch
    // count fixed. Every sample starts from the built weights.
    let plan = build_graph(&dataset.okb, &dataset.ckb, &signals, &blocking, &config);
    let (validation, _) = dataset.entity_split(0.2, 5);
    let clamps = validation_labels(&dataset, &validation).clamps(&dataset.okb, &plan);
    assert!(!clamps.is_empty(), "the train metric needs labeled variables to clamp");
    let train_opts = TrainOptions {
        learning_rate: config.learning_rate,
        max_epochs: 2,
        grad_tol: 0.0,
        l2: 1e-3,
        lbp: config.lbp.clone(),
    };
    metrics.push_calibrated((
        "train",
        median_ns(7, calibration, || {
            let mut params = plan.params.clone();
            black_box(train(&plan.graph, &mut params, &clamps, &train_opts));
        }),
    ));

    // delta_ingest: warm ingestion of a 24-triple tail against a session
    // warmed on everything before it. The warm session is forked per
    // sample so each run ingests the same delta from identical state; the
    // fork is part of the serving cost and stays in the timing.
    let triples: Vec<jocl_kb::Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
    let split = triples.len().saturating_sub(24).max(1);
    let mut warm_base = jocl_core::IncrementalJocl::new(e2e_config.clone(), &dataset.ckb, &signals);
    warm_base.apply_delta(&triples[..split]);
    metrics.push_calibrated((
        "delta_ingest",
        median_ns(9, calibration, || {
            let mut session = warm_base.clone();
            black_box(session.apply_delta(&triples[split..]));
        }),
    ));

    // snapshot_restore: rebuilding the warm session from its snapshot
    // envelope (deserialize + validate + reindex; no file I/O, no
    // inference) — the serving restart path whose headline is "≥10x
    // cheaper than a cold build".
    let snapshot_bytes = jocl_serve::snapshot::session_to_bytes(&mut warm_base);
    metrics.push_calibrated((
        "snapshot_restore",
        median_ns(9, calibration, || {
            black_box(
                jocl_serve::snapshot::session_from_bytes(
                    &snapshot_bytes,
                    e2e_config.clone(),
                    &dataset.ckb,
                    &signals,
                )
                .expect("snapshot restores"),
            );
        }),
    ));

    // replica_catchup: the read-replica warm-boot path — restore the
    // writer's snapshot, then replay the replication-log tail (the same
    // 24-triple batch) exactly as the writer applied it. This is what a
    // `serve --replica` pays on boot instead of a cold rebuild.
    metrics.push_calibrated((
        "replica_catchup",
        median_ns(9, calibration, || {
            let mut replica = jocl_serve::snapshot::session_from_bytes(
                &snapshot_bytes,
                e2e_config.clone(),
                &dataset.ckb,
                &signals,
            )
            .expect("snapshot restores");
            black_box(replica.apply_delta(&triples[split..]));
        }),
    ));

    // Memory metrics (raw comparison): the warm serving session's
    // accounted resident bytes and its snapshot envelope size. Both are
    // pure functions of the code + workload, so any drift is a real
    // storage-layer change, not machine noise.
    metrics.push_raw(("session_heap_bytes", warm_base.heap_bytes() as u64));
    metrics.push_raw(("snapshot_bytes", snapshot_bytes.len() as u64));
    if let Some(kb) = peak_memory_kb() {
        // Peak RSS tracks allocator behaviour too, so it is noisier
        // than the accounted metrics — still raw (bytes are bytes),
        // still inside the same tolerance.
        metrics.push_raw(("peak_memory_kb", kb));
    }
    metrics
}

fn baseline_path() -> PathBuf {
    if let Some(p) = jocl_bench::env_bench_baseline() {
        return p;
    }
    // crates/bench → repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

/// Serialize metrics as the flat JSON object the gate reads back.
/// Calibrated metrics keep the `_ns` suffix; raw byte metrics carry
/// their unit in the name already and get `_raw`.
fn to_json(calibration: u64, metrics: &[(&'static str, u64, bool)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"comment\": \"_ns metrics are medians compared per-machine via the calibration ratio; _raw metrics (bytes) compare raw; refresh via scripts/update_bench_baseline.sh\",\n",
    );
    out.push_str(&format!("  \"calibration_ns\": {calibration},\n"));
    for (i, (name, value, calibrated)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        let suffix = if *calibrated { "ns" } else { "raw" };
        out.push_str(&format!("  \"{name}_{suffix}\": {value}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// Extract `"<name>_ns": <digits>` from the baseline JSON. Hand-rolled
/// (the offline dependency set has no JSON crate) but strict: a missing
/// or malformed entry is a hard error, not a silent pass.
fn parse_baseline(json: &str, name: &str, suffix: &str) -> Result<u64, String> {
    let key = format!("\"{name}_{suffix}\"");
    let at = json.find(&key).ok_or_else(|| format!("baseline is missing {key}"))?;
    let rest = &json[at + key.len()..];
    let colon = rest.find(':').ok_or_else(|| format!("no ':' after {key}"))?;
    let digits: String =
        rest[colon + 1..].trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<u64>().map_err(|_| format!("no integer value for {key}"))
}

const USAGE: &str = "usage: bench_regression [--update] [--json PATH | --json=PATH]";

/// Command-line flags. `--update` records the baseline instead of
/// gating against it; `--json PATH` (or `--json=PATH`) also writes this
/// run's measurements as the same flat JSON the baseline uses, so CI can
/// archive every run machine-readably. Any other argument exits 2 with
/// the usage line before anything is measured.
struct Args {
    update: bool,
    json: Option<PathBuf>,
}

fn parse_args() -> Args {
    let fail = |msg: String| -> ! {
        eprintln!("bench_regression: {msg}\n{USAGE}");
        std::process::exit(2);
    };
    let mut parsed = Args { update: false, json: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--update" {
            parsed.update = true;
        } else if a == "--json" {
            let p = args.next().unwrap_or_else(|| fail("--json needs a path".into()));
            parsed.json = Some(PathBuf::from(p));
        } else if let Some(p) = a.strip_prefix("--json=") {
            parsed.json = Some(PathBuf::from(p));
        } else {
            fail(format!("unknown argument {a:?}"));
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let tolerance: f64 = jocl_bench::env_bench_tolerance();
    let path = baseline_path();

    println!("bench-regression gate (tolerance {:.0}%)", tolerance * 100.0);
    let mut samples = Vec::new();
    let metrics = measure(&mut samples);
    let n = samples.len();
    let calibration = median(samples);
    println!(
        "  calibration  {calibration:>12} ns  (machine speed reference, median of {n} samples)"
    );

    // Written before the gate verdict, so a regressing run still leaves
    // its measurements behind for the archaeology.
    if let Some(out) = &args.json {
        std::fs::write(out, to_json(calibration, &metrics))
            .unwrap_or_else(|e| panic!("cannot write measurements to {}: {e}", out.display()));
        println!("  measurements written to {}", out.display());
    }

    if args.update {
        std::fs::write(&path, to_json(calibration, &metrics)).expect("write BENCH_BASELINE.json");
        for (name, value, calibrated) in &metrics {
            let unit = if *calibrated { "ns" } else { "" };
            println!("  {name:<18} {value:>12} {unit:<2} (recorded)");
        }
        println!("baseline written to {}", path.display());
        return;
    }

    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); record one with scripts/update_bench_baseline.sh",
            path.display()
        )
    });
    let base_calibration =
        parse_baseline(&json, "calibration", "ns").unwrap_or_else(|e| panic!("{e}"));
    println!(
        "  machine vs baseline machine: {:.2}x (calibrated comparison)",
        calibration as f64 / base_calibration.max(1) as f64
    );
    let mut failed = false;
    for (name, value, calibrated) in &metrics {
        let suffix = if *calibrated { "ns" } else { "raw" };
        let base = match parse_baseline(&json, name, suffix) {
            Ok(b) => b,
            // `peak_memory_kb` only exists on baselines recorded on
            // Linux; a baseline without it simply doesn't gate it.
            Err(_) if *name == "peak_memory_kb" => {
                println!("  {name:<18} {value:>12}     (no baseline entry — skipped)");
                continue;
            }
            Err(e) => panic!("{e}"),
        };
        // Calibrated ratio: how much slower this metric got relative to
        // how much slower this *machine* is — hardware differences
        // between the baseline recorder and this runner divide out.
        // Byte metrics skip the denominator: bytes are bytes on any box.
        let ratio = if *calibrated {
            (*value as f64 / calibration.max(1) as f64)
                / (base.max(1) as f64 / base_calibration.max(1) as f64)
        } else {
            *value as f64 / base.max(1) as f64
        };
        let verdict = if ratio > 1.0 + tolerance {
            failed = true;
            "REGRESSION"
        } else if ratio < 1.0 {
            "improved"
        } else {
            "ok"
        };
        let kind = if *calibrated { "calibrated" } else { "raw" };
        println!(
            "  {name:<18} {value:>12}  vs baseline {base:>12}  ({kind} {ratio:>5.2}x)  {verdict}"
        );
    }
    if failed {
        eprintln!(
            "bench-regression: at least one metric regressed more than {:.0}% — \
             optimize, or refresh the baseline deliberately with \
             scripts/update_bench_baseline.sh and justify it in BENCH_NOTES.md",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("bench-regression: all metrics within tolerance");
}
