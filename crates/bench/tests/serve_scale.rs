//! Acceptance gate for the durable serving subsystem at CI scale
//! (`JOCL_SCALE=0.02`):
//!
//! 1. **Retraction parity** — after warm-retracting the 48 most recent
//!    arrivals from a fully-ingested session, the live view decodes
//!    **identically** to a from-scratch batch run on the survivors.
//!    Retracting recent arrivals keeps the parity exact even under the
//!    default blocking caps: the caps were consumed by the prefix both
//!    runs share (see the `jocl_core::incremental` module docs).
//! 2. **Warm retract ≥3× cheaper than a cold rebuild** of the
//!    survivors (message updates).
//! 3. **Snapshot restore ≥10× cheaper than a cold build** (wall-clock:
//!    deserializing the warm session vs re-running blocking + graph
//!    build + LBP; the median of 5 samples each, taken alternately),
//!    resuming with bitwise-identical state.
//!
//! Guarded behind `--ignored` like the other scale gates:
//!
//! ```text
//! JOCL_SCALE=0.02 cargo test -p jocl_bench --release --test serve_scale -- --ignored
//! ```

use jocl_bench::runner::{env_scale, env_seed, env_stream_batches};
use jocl_core::signals::build_signals;
use jocl_core::{DeltaOp, Jocl, JoclConfig, JoclInput};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Okb, Triple};
use jocl_serve::{snapshot, ServeConfig, ServeSession};
use std::time::Instant;

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn retraction_parity_with_warm_and_restore_savings() {
    let scale = env_scale();
    let seed = env_seed();
    let batches = env_stream_batches();

    let dataset = reverb45k_like(seed, scale);
    // Distinct arrival sequence (the session dedups on ingest).
    let mut union = Okb::new();
    for (_, t) in dataset.okb.triples() {
        union.ingest_triple(t.clone());
    }
    let triples: Vec<Triple> = union.triples().map(|(_, t)| t.clone()).collect();
    assert!(triples.len() > 96, "gate needs a non-trivial world (JOCL_SCALE too small?)");
    let signals = build_signals(
        &union,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    // As in stream_scale: a budget under which the engine genuinely
    // converges at this scale.
    config.lbp.max_iters = 100;

    // Ingest everything in arrival batches, then warm-retract the tail.
    let mut session = ServeSession::open(
        config.clone(),
        ServeConfig::builder().compact_threshold(f64::INFINITY).build(),
        &dataset.ckb,
        &signals,
    );
    let chunk = triples.len().div_ceil(batches.max(1)).max(1);
    for delta in triples.chunks(chunk) {
        let out = session.add_all(delta);
        assert!(out.output.diagnostics.lbp.converged, "ingest deltas must converge");
    }
    let split = triples.len() - 48;
    let retract_ops: Vec<DeltaOp> =
        triples[split..].iter().cloned().map(DeltaOp::Retract).collect();
    let t0 = Instant::now();
    let retract_out = session.apply(&retract_ops);
    let retract_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(retract_out.output.diagnostics.lbp.converged, "retract delta must converge");
    assert_eq!(retract_out.stats.retracted, 48);
    assert!(retract_out.stats.tombstoned_factors > 0);

    // Reference: cold batch run on the survivors (same frozen signals).
    let mut survivors = Okb::new();
    for t in &triples[..split] {
        survivors.ingest_triple(t.clone());
    }
    let input = JoclInput {
        okb: &survivors,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };
    let cold_build = || {
        let t0 = Instant::now();
        let batch = Jocl::new(config.clone()).run_with_signals(input, &signals, None);
        (t0.elapsed().as_secs_f64() * 1e3, batch)
    };
    let (first_cold_ms, batch) = cold_build();
    let mut cold_samples = vec![first_cold_ms];
    assert!(batch.diagnostics.lbp.converged, "batch reference must converge");
    let (warm, cold) =
        (retract_out.stats.lbp.message_updates, batch.diagnostics.lbp.message_updates);
    println!(
        "warm retract of 48 triples: {warm} msg updates in {retract_ms:.1} ms vs cold rebuild \
         of the {} survivors: {cold} msg updates in {first_cold_ms:.1} ms ({:.2}x updates)",
        split,
        cold as f64 / warm.max(1) as f64,
    );

    // 1. Decode parity on the live view.
    let view = session.live_view().expect("session decoded");
    assert_eq!(view.triples.len(), split, "live view covers exactly the survivors");
    assert_eq!(view.np_links, batch.np_links, "np links diverged from batch on survivors");
    assert_eq!(view.rp_links, batch.rp_links, "rp links diverged from batch on survivors");
    assert_eq!(
        view.np_clustering.assignment(),
        batch.np_clustering.assignment(),
        "np clustering diverged from batch on survivors"
    );
    assert_eq!(
        view.rp_clustering.assignment(),
        batch.rp_clustering.assignment(),
        "rp clustering diverged from batch on survivors"
    );

    // 2. Warm-retract savings.
    assert!(
        warm * 3 <= cold,
        "a warm 48-triple retraction must be ≥3x cheaper than a cold rebuild: {warm} vs {cold}"
    );

    // 3. Snapshot → restore ≥10× cheaper than the cold build, resuming
    //    bitwise-identically. Restores and cold builds alternate, 5
    //    samples each, and the gate compares their medians: one sample
    //    of either on a shared machine is too noisy to decide it.
    let dir = std::env::temp_dir().join(format!("jocl-serve-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");
    let bytes_written = session.snapshot_to(&path).unwrap();
    let mut restore_samples = Vec::new();
    let mut restored = None;
    for i in 0..5 {
        if i > 0 {
            cold_samples.push(cold_build().0);
        }
        let t0 = Instant::now();
        let r = snapshot::load_session(&path, config.clone(), &dataset.ckb, &signals).unwrap();
        restore_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        restored = Some(r);
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    println!("restore samples {restore_samples:.1?} ms; cold build samples {cold_samples:.1?} ms");
    let (restore_ms, cold_ms) = (median(restore_samples), median(cold_samples));
    println!(
        "snapshot {} bytes; restore {restore_ms:.1} ms vs cold build {cold_ms:.1} ms ({:.1}x, \
         medians of 5)",
        bytes_written,
        cold_ms / restore_ms.max(1e-9),
    );
    let mut restored = restored.expect("five restores ran");
    assert_eq!(
        restored.export_state(),
        session.session_mut().export_state(),
        "restored session must be bitwise identical"
    );
    assert!(
        restore_ms * 10.0 <= cold_ms,
        "restoring a warm snapshot must be ≥10x cheaper than a cold build: \
         {restore_ms:.1} ms vs {cold_ms:.1} ms"
    );
    std::fs::remove_dir_all(&dir).ok();
}
