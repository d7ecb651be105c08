//! Memory acceptance gates for the compressed storage layer.
//!
//! Two ignored tests, wired into CI's scale-smoke job:
//!
//! * `quantized_store_memory_wall` (`JOCL_SCALE=0.02`) — the PR-7
//!   headline numbers: with `MessageStore::Quantized`, the committed
//!   message arenas must shed **≥ 40%** of their resident bytes and the
//!   snapshot envelope **≥ 30%** of its size versus the exact store on
//!   the same warm session, while the decode stays identical.
//! * `scale_full` (`JOCL_SCALE=1.0`) — the
//!   paper-scale end-to-end run must complete, converge, and stay under
//!   a peak-memory ceiling (`JOCL_MEM_CEILING_MB`, default 8192).
//!
//! ```text
//! JOCL_SCALE=0.02 cargo test -p jocl_bench --release --test memory_scale -- --ignored quantized
//! JOCL_SCALE=1.0 cargo test -p jocl_bench --release --test memory_scale -- --ignored scale_full
//! ```

use jocl_bench::{env_mem_ceiling_mb, env_scale, env_seed};
use jocl_core::signals::build_signals;
use jocl_core::{BlockingIndex, IncrementalJocl, JoclConfig};
use jocl_datagen::{reverb45k_like, stress_like};
use jocl_embed::SgnsOptions;
use jocl_fg::MessageStore;
use jocl_kb::{Okb, Triple};
use std::time::Instant;

/// Peak resident set of this process in KiB (`VmHWM`); `None` off Linux.
fn peak_memory_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn quantized_store_memory_wall() {
    let scale = env_scale();
    let seed = env_seed();

    let dataset = reverb45k_like(seed, scale);
    let mut union = Okb::new();
    for (_, t) in dataset.okb.triples() {
        union.ingest_triple(t.clone());
    }
    let triples: Vec<Triple> = union.triples().map(|(_, t)| t.clone()).collect();
    let signals = build_signals(
        &union,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    config.lbp.max_iters = 100;

    // One warm session per store, identical ingest.
    let warm = |store: MessageStore| {
        let mut config = config.clone();
        config.message_store = store;
        let mut session = IncrementalJocl::new(config, &dataset.ckb, &signals);
        let out = session.apply_delta(&triples);
        assert!(out.output.diagnostics.lbp.converged, "{store:?} ingest must converge");
        (session, out.output)
    };
    let (mut exact, exact_out) = warm(MessageStore::Exact);
    let (mut quant, quant_out) = warm(MessageStore::Quantized);

    // Decode parity: quantization must not move the decode at this
    // scale (links and clusterings, both families).
    assert_eq!(quant_out.np_links, exact_out.np_links, "np links diverged under quantization");
    assert_eq!(quant_out.rp_links, exact_out.rp_links, "rp links diverged under quantization");
    assert_eq!(
        quant_out.np_clustering.assignment(),
        exact_out.np_clustering.assignment(),
        "np clustering diverged under quantization"
    );
    assert_eq!(
        quant_out.rp_clustering.assignment(),
        exact_out.rp_clustering.assignment(),
        "rp clustering diverged under quantization"
    );

    // Message-arena resident bytes: ≥ 40% reduction.
    let (arena_exact, arena_quant) = (exact.message_heap_bytes(), quant.message_heap_bytes());
    println!(
        "message arenas: exact {arena_exact} B, quantized {arena_quant} B \
         ({:.1}% reduction); session totals {} B vs {} B",
        100.0 * (1.0 - arena_quant as f64 / arena_exact.max(1) as f64),
        exact.heap_bytes(),
        quant.heap_bytes(),
    );
    assert!(arena_exact > 0 && arena_quant > 0, "gate needs warm sessions");
    assert!(
        arena_quant * 100 <= arena_exact * 60,
        "quantized message arenas must be ≥40% smaller: {arena_quant} vs {arena_exact}"
    );

    // Snapshot envelope: the PR-7 wire format (delta-coded sections +
    // quantized arenas) must undercut the fixed-width format it
    // replaced by ≥ 30%, and both stores must restore bit-exactly.
    // 4 598 927 B is the snapshot the pre-PR-7 codec wrote for exactly
    // this world (scale 0.02, seed 42 — the values CI pins; measured
    // via the seed `serve_scale` gate), so the constant only gates that
    // configuration.
    let snap_exact = jocl_serve::snapshot::session_to_bytes(&mut exact);
    let snap_quant = jocl_serve::snapshot::session_to_bytes(&mut quant);
    println!(
        "snapshots: exact {} B, quantized {} B ({:.1}% smaller than exact)",
        snap_exact.len(),
        snap_quant.len(),
        100.0 * (1.0 - snap_quant.len() as f64 / snap_exact.len().max(1) as f64),
    );
    assert!(
        snap_quant.len() < snap_exact.len(),
        "quantized snapshot must undercut the exact one: {} vs {}",
        snap_quant.len(),
        snap_exact.len()
    );
    if scale == 0.02 && seed == 42 {
        const PRE_PR7_SNAPSHOT_BYTES: usize = 4_598_927;
        println!(
            "vs pre-PR-7 format ({PRE_PR7_SNAPSHOT_BYTES} B): exact -{:.1}%, quantized -{:.1}%",
            100.0 * (1.0 - snap_exact.len() as f64 / PRE_PR7_SNAPSHOT_BYTES as f64),
            100.0 * (1.0 - snap_quant.len() as f64 / PRE_PR7_SNAPSHOT_BYTES as f64),
        );
        assert!(
            snap_quant.len() * 100 <= PRE_PR7_SNAPSHOT_BYTES * 70,
            "quantized snapshot must be ≥30% smaller than the pre-PR-7 format: {} vs \
             {PRE_PR7_SNAPSHOT_BYTES}",
            snap_quant.len()
        );
    }
    for (bytes, session, what) in
        [(&snap_exact, &mut exact, "exact"), (&snap_quant, &mut quant, "quantized")]
    {
        let mut restored = jocl_serve::snapshot::session_from_bytes(
            bytes,
            session.config().clone(),
            &dataset.ckb,
            &signals,
        )
        .unwrap_or_else(|e| panic!("{what} snapshot must restore: {e}"));
        assert_eq!(
            restored.export_state(),
            session.export_state(),
            "{what} snapshot round-trip must be bit-exact"
        );
    }
}

#[test]
#[ignore = "paper-scale end-to-end run; run with -- --ignored"]
fn scale_full() {
    let scale = env_scale();
    let seed = env_seed();
    let ceiling_mb: u64 = env_mem_ceiling_mb(8192);

    let t0 = Instant::now();
    let dataset = reverb45k_like(seed, scale);
    let gen_s = t0.elapsed().as_secs_f64();
    let mut union = Okb::new();
    for (_, t) in dataset.okb.triples() {
        union.ingest_triple(t.clone());
    }
    let triples: Vec<Triple> = union.triples().map(|(_, t)| t.clone()).collect();
    let t1 = Instant::now();
    let signals = build_signals(
        &union,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let signals_s = t1.elapsed().as_secs_f64();

    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    config.lbp.max_iters = 100;
    config.message_store = MessageStore::Quantized;

    let t2 = Instant::now();
    let mode = config.lbp.mode;
    let mut session = IncrementalJocl::new(config, &dataset.ckb, &signals);
    let out = session.apply_delta(&triples);
    let infer_s = t2.elapsed().as_secs_f64();
    assert!(out.output.diagnostics.lbp.converged, "paper-scale run must converge");

    let peak_kb = peak_memory_kb();
    println!(
        "scale_full (scale {scale}, {:?}): {} triples, {} vars, {} factors; datagen {gen_s:.1}s, \
         signals {signals_s:.1}s, ingest+inference {infer_s:.1}s, total {:.1}s; session heap \
         {} KiB accounted; peak RSS {} KiB",
        mode,
        triples.len(),
        out.output.diagnostics.num_vars,
        out.output.diagnostics.num_factors,
        t0.elapsed().as_secs_f64(),
        session.heap_bytes() / 1024,
        peak_kb.map_or_else(|| "?".into(), |k| k.to_string()),
    );
    if let Some(kb) = peak_kb {
        assert!(
            kb <= ceiling_mb * 1024,
            "peak RSS {} KiB exceeds the {ceiling_mb} MiB ceiling (JOCL_MEM_CEILING_MB)",
            kb
        );
    }
}

/// Storage-layer profile on the millions-of-triples stress preset
/// (`jocl_datagen::stress_like`; `JOCL_SCALE=1.0` ≈ 2.25M triples):
/// ingest + blocking only — the components whose arenas this PR
/// compresses — with per-structure accounted bytes, so "what dominates"
/// is a printed number, not a guess. Inference at this size is the
/// ROADMAP's 100× north star, not this gate; the full pipeline is gated
/// at paper scale by `scale_full`.
#[test]
#[ignore = "millions-of-triples stress preset; run with -- --ignored"]
fn stress_ingest() {
    let scale = env_scale();
    let seed = env_seed();
    let ceiling_mb: u64 = env_mem_ceiling_mb(32_768);

    let t0 = Instant::now();
    let dataset = stress_like(seed, scale);
    let gen_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut okb = Okb::new();
    for (_, t) in dataset.okb.triples() {
        okb.ingest_triple(t.clone());
    }
    let ingest_s = t1.elapsed().as_secs_f64();

    // Blocking needs only the IDF side of the signal set; the embedding/
    // rule signals are inference inputs and stay out of this profile.
    let t2 = Instant::now();
    let signals = build_signals(
        &okb,
        &dataset.ckb,
        &dataset.ppdb,
        &[],
        &SgnsOptions { dim: 8, epochs: 1, seed, ..Default::default() },
    );
    let idf_s = t2.elapsed().as_secs_f64();

    let config = JoclConfig::default();
    let t3 = Instant::now();
    let mut blocking = BlockingIndex::new(&config);
    let mut pairs = 0usize;
    for (t, triple) in okb.triples() {
        let delta = blocking.append_triple(t, triple, &signals);
        pairs += delta.subj_pairs.len() + delta.pred_pairs.len() + delta.obj_pairs.len();
    }
    let blocking_s = t3.elapsed().as_secs_f64();

    let (okb_b, blk_b) = (okb.heap_bytes(), blocking.heap_bytes());
    println!(
        "stress_ingest (scale {scale}): {} triples, {pairs} blocking pairs; datagen {gen_s:.1}s, \
         ingest {ingest_s:.1}s, idf/signals {idf_s:.1}s, blocking {blocking_s:.1}s; okb {} KiB, \
         blocking index {} KiB accounted; peak RSS {} KiB",
        okb.len(),
        okb_b / 1024,
        blk_b / 1024,
        peak_memory_kb().map_or_else(|| "?".into(), |k| k.to_string()),
    );
    assert!(!okb.is_empty() && pairs > 0, "stress world must produce blocking work");
    if let Some(kb) = peak_memory_kb() {
        assert!(
            kb <= ceiling_mb * 1024,
            "peak RSS {} KiB exceeds the {ceiling_mb} MiB ceiling (JOCL_MEM_CEILING_MB)",
            kb
        );
    }
}
