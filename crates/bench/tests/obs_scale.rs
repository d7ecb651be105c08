//! Acceptance gate for the observability plane at CI scale
//! (`JOCL_SCALE=0.02`):
//!
//! 1. **Metrics don't change the answer** — the end-to-end decode is
//!    bitwise identical with `JOCL_METRICS` off and on (links,
//!    clustering assignments, message-update counts).
//! 2. **Metrics are ≤2% overhead** — on `lbp_sweep` and `end_to_end`,
//!    the median of paired on/off wall-clock ratios must stay within
//!    2% (each pair runs both arms back-to-back in alternating order,
//!    so machine drift cancels within the pair).
//! 3. **The exposition is byte-stable** — two `metrics` reads of an
//!    idle writer return byte-identical `metrics.v1` frames: a metrics
//!    read records nothing, not even about itself.
//!
//! Guarded behind `--ignored` like the other scale gates:
//!
//! ```text
//! JOCL_SCALE=0.02 cargo test -p jocl_bench --release --test obs_scale -- --ignored
//! ```

use jocl_bench::{env_scale, env_seed};
use jocl_core::signals::build_signals;
use jocl_core::{Jocl, JoclConfig, JoclInput};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{FactorGraph, LbpOptions, Params, Potential, VarId};
use jocl_serve::{parse_command, Engine, EngineOptions, FeedRole, Response, ServeConfig};
use std::hint::black_box;
use std::time::Instant;

/// A ring of `n` 4-state variables with dense pairwise factors — the
/// same pure-LBP workload the bench-regression gate times, big enough
/// here that a median is meaningful against 2%.
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

fn median<T: Copy + PartialOrd>(mut v: Vec<T>) -> T {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Paired A/B samples: each pair runs `f` with metrics off and on
/// back-to-back (order alternating per pair, so warm-cache bias hits
/// both arms equally), giving per-pair ratios in which machine drift —
/// thermal, noisy neighbors, scheduler jitter — cancels. Only the
/// recording cost separates the arms within a pair.
fn ab_pairs(samples: usize, mut f: impl FnMut()) -> Vec<(u64, u64)> {
    let mut time = |enabled: bool| {
        jocl_obs::set_metrics_enabled(enabled);
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as u64
    };
    // One warm-up per arm so neither pays first-touch costs.
    time(false);
    time(true);
    let pairs = (0..samples)
        .map(|i| {
            if i % 2 == 0 {
                let off = time(false);
                (off, time(true))
            } else {
                let on = time(true);
                (time(false), on)
            }
        })
        .collect();
    jocl_obs::set_metrics_enabled(true);
    pairs
}

/// Gate on the median of per-pair on/off ratios — pairing makes the
/// estimator robust to the drift that tears apart two independent
/// medians on a busy machine.
fn assert_overhead(name: &str, pairs: &[(u64, u64)]) {
    let off_ns = median(pairs.iter().map(|&(off, _)| off).collect());
    let on_ns = median(pairs.iter().map(|&(_, on)| on).collect());
    let ratio = median(pairs.iter().map(|&(off, on)| on as f64 / off.max(1) as f64).collect());
    println!("  {name:<12} off {off_ns:>12} ns  on {on_ns:>12} ns  (paired {ratio:.4}x)");
    assert!(
        ratio <= 1.02,
        "{name}: metrics-on runs exceed 2% over paired metrics-off runs ({ratio:.4}x median \
         ratio; medians off {off_ns} ns, on {on_ns} ns) — a recording site grew a lock or an \
         allocation"
    );
}

/// One sequential test: the arms flip the process-global metrics switch,
/// so interleaving with other tests would tear the A/B comparison.
#[test]
#[ignore = "observability gate at CI scale; run with -- --ignored"]
fn metrics_are_free_deterministic_and_byte_stable() {
    let seed = env_seed();
    let scale = env_scale();
    let dataset = reverb45k_like(seed, scale);
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let config = JoclConfig { train_epochs: 0, ..Default::default() };
    let input = JoclInput {
        okb: &dataset.okb,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };

    // 1. Bitwise decode parity with recording off vs on.
    jocl_obs::set_metrics_enabled(false);
    let off = Jocl::new(config.clone()).run_with_signals(input, &signals, None);
    jocl_obs::set_metrics_enabled(true);
    let on = Jocl::new(config.clone()).run_with_signals(input, &signals, None);
    assert_eq!(off.np_links, on.np_links, "np links must not depend on metrics");
    assert_eq!(off.rp_links, on.rp_links, "rp links must not depend on metrics");
    assert_eq!(
        off.np_clustering.assignment(),
        on.np_clustering.assignment(),
        "np clustering must not depend on metrics"
    );
    assert_eq!(
        off.rp_clustering.assignment(),
        on.rp_clustering.assignment(),
        "rp clustering must not depend on metrics"
    );
    assert_eq!(
        off.diagnostics.lbp.message_updates, on.diagnostics.lbp.message_updates,
        "the sweep trajectory must not depend on metrics"
    );

    // 2. ≤2% overhead on the two hottest instrumented paths.
    println!("metrics overhead ({:?}):", config.lbp.mode);
    let (g, params) = build_ring(600);
    let opts = LbpOptions { max_iters: 10, mode: config.lbp.mode, ..Default::default() };
    let pairs = ab_pairs(21, || {
        let mut eng = LbpEngine::new(&g);
        black_box(eng.run(&params, &opts));
    });
    assert_overhead("lbp_sweep", &pairs);
    let pairs = ab_pairs(5, || {
        black_box(Jocl::new(config.clone()).run_with_signals(input, &signals, None));
    });
    assert_overhead("end_to_end", &pairs);

    // 3. Byte-identical metrics frames across two reads of an idle
    // writer (request counters, latency samples, gauges — all of it).
    let dir = std::env::temp_dir().join(format!("jocl-obs-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pool: Vec<jocl_kb::Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut engine = Engine::open(
        config,
        ServeConfig::builder().compact_threshold(f64::INFINITY).build(),
        &dataset.ckb,
        &signals,
        pool,
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Writer(dir.join("feed.log")),
        },
    );
    let mut exec = |line: &str| match engine.execute_caught(&parse_command(line).unwrap().unwrap())
    {
        Response::Ok(lines) => lines,
        Response::Err(e) => panic!("{line:?} failed: {e}"),
    };
    exec("ingest 48");
    exec("stats");
    let first = exec("metrics");
    let second = exec("metrics");
    assert_eq!(
        first, second,
        "two metrics reads of an idle writer must be byte-identical — \
         a metrics read recorded something"
    );
    let parsed = jocl_serve::parse_metrics(&first).expect("well-formed metrics frame");
    for required in
        ["jocl_requests_total{plane=\"writer\"}", "jocl_lbp_sweep_ns", "jocl_graph_build_ns"]
    {
        assert!(
            parsed.iter().any(|(k, _)| k.starts_with(required)),
            "metrics inventory is missing {required}: {:?}",
            parsed.iter().map(|(k, _)| k).take(20).collect::<Vec<_>>()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
