//! **stream** — replay a generated dataset as arrival batches through
//! the incremental session ([`jocl_core::IncrementalJocl`]) and verify
//! decode parity against the one-shot batch pipeline on the union.
//!
//! ```text
//! JOCL_SCALE=0.02 JOCL_STREAM_BATCH=4 cargo run --release -p jocl_bench --bin stream
//! ```
//!
//! Per batch it prints what the delta appended, how far its influence
//! reached (affected / total connected components), and what the warm
//! LBP run cost; the footer compares the session's total message updates
//! with what `JOCL_STREAM_BATCH` cold batch re-runs would have paid, and
//! exits non-zero on any decode mismatch.

use jocl_bench::runner::{env_message_store, env_scale, env_seed, env_stream_batches};
use jocl_core::signals::build_signals;
use jocl_core::{IncrementalJocl, Jocl, JoclConfig, JoclInput};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Okb, Triple};
use std::time::Instant;

fn main() {
    jocl_obs::set_metrics_enabled(jocl_bench::env_metrics());
    jocl_obs::set_trace_enabled(jocl_bench::env_trace());
    let scale = env_scale();
    let seed = env_seed();
    let batches = env_stream_batches();

    let dataset = reverb45k_like(seed, scale);
    let triples: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
    // The union OKB the batch reference runs on: the same dedup ingest
    // the session applies.
    let mut union = Okb::new();
    for t in &triples {
        union.ingest_triple(t.clone());
    }
    let signals = build_signals(
        &union,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let store = env_message_store();
    let config = JoclConfig { train_epochs: 0, message_store: store, ..Default::default() };

    println!(
        "Streaming ingestion: {} triples ({} distinct) as {batches} arrival batches \
         (scale {scale}, seed {seed}, {:?})",
        triples.len(),
        union.len(),
        config.lbp.mode,
    );
    println!(
        "{:>5} {:>8} {:>6} {:>8} {:>9} {:>12} {:>14} {:>9}",
        "batch", "triples", "dup", "vars+", "factors+", "components", "msg updates", "ms"
    );

    let mut session = IncrementalJocl::new(config.clone(), &dataset.ckb, &signals);
    let chunk = triples.len().div_ceil(batches.max(1)).max(1);
    let mut last = None;
    let mut applied_batches = 0usize;
    for (i, delta) in triples.chunks(chunk).enumerate() {
        applied_batches += 1;
        let t0 = Instant::now();
        let out = session.apply_delta(delta);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>5} {:>8} {:>6} {:>8} {:>9} {:>6}/{:<5} {:>14} {:>9.1}",
            i + 1,
            out.stats.appended,
            out.stats.duplicates,
            out.stats.new_vars,
            out.stats.new_factors,
            out.stats.affected_components,
            out.stats.total_components,
            out.stats.lbp.message_updates,
            ms
        );
        last = Some(out);
    }
    let last = last.expect("at least one batch");

    // Batch reference on the union with the same frozen signals.
    let input =
        JoclInput { okb: &union, ckb: &dataset.ckb, ppdb: &dataset.ppdb, corpus: &dataset.corpus };
    let t0 = Instant::now();
    let batch = Jocl::new(config).run_with_signals(input, &signals, None);
    let batch_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Upper bound on the cold-per-arrival baseline (each cold re-run
    // would process a growing *prefix*, not the full union; the
    // stream_scale gate measures the prefix runs exactly). Uses the
    // number of batches actually applied, which chunking can make
    // smaller than JOCL_STREAM_BATCH on tiny datasets.
    let cold_total = batch.diagnostics.lbp.message_updates * applied_batches as u64;
    println!(
        "cold batch run on the union: {} msg updates in {batch_ms:.1} ms; {applied_batches} cold \
         rebuilds of the union would pay {cold_total} vs {} streamed ({:.2}x), final warm \
         delta {} ({:.2}x vs one cold rebuild)",
        batch.diagnostics.lbp.message_updates,
        session.total_message_updates,
        cold_total as f64 / session.total_message_updates.max(1) as f64,
        last.stats.lbp.message_updates,
        batch.diagnostics.lbp.message_updates as f64 / last.stats.lbp.message_updates.max(1) as f64,
    );

    println!(
        "session heap: {} KiB accounted ({store:?} message store)",
        session.heap_bytes() / 1024
    );

    let parity = last.output.np_links == batch.np_links
        && last.output.rp_links == batch.rp_links
        && last.output.np_clustering.assignment() == batch.np_clustering.assignment()
        && last.output.rp_clustering.assignment() == batch.rp_clustering.assignment();
    if jocl_obs::trace_enabled() {
        eprint!("{}", jocl_obs::take_trace_tsv());
    }
    if parity {
        println!("PARITY ok: streamed decode is identical to the batch decode on the union");
    } else {
        println!("PARITY MISMATCH: streamed decode differs from the batch decode");
        std::process::exit(1);
    }
}
