//! Known gaps in streamed-vs-batch decode parity: worlds on which four
//! arrival batches through `IncrementalJocl` do **not** decode like the
//! one-shot batch run on the union — what the `stream` bin reports as
//! `PARITY MISMATCH` at the same scale and seed.
//!
//! A warm start resumes from the previous fixed point of a loopy graph,
//! and LBP on a loopy graph can have several; arrival order also fixes
//! node ids, and ids break ties in the residual queue and in decode. So
//! the streamed session may settle on another fixed point than the
//! batch run. Each test below asserts the parity the session does not
//! yet have; they fail until that is mended, and are kept out of the
//! CI steps that run `--ignored` tests:
//!
//! ```text
//! cargo test -p jocl_bench --release --test parity_gaps -- --ignored
//! ```

use jocl_core::signals::build_signals;
use jocl_core::{IncrementalJocl, Jocl, JoclConfig, JoclInput};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Okb, Triple};

/// Arrival batches, as the `stream` bin's `JOCL_STREAM_BATCH=4`.
const BATCHES: usize = 4;

/// Replay the `(seed, scale)` world in [`BATCHES`] arrival batches with
/// the `stream` bin's signals and config, and assert the final decode
/// equals the batch decode on the union.
fn assert_streamed_decode_matches_batch(scale: f64, seed: u64) {
    let dataset = reverb45k_like(seed, scale);
    let triples: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
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
    let config = JoclConfig { train_epochs: 0, ..Default::default() };

    let mut session = IncrementalJocl::new(config.clone(), &dataset.ckb, &signals);
    let chunk = triples.len().div_ceil(BATCHES);
    let mut last = None;
    for delta in triples.chunks(chunk) {
        last = Some(session.apply_delta(delta).output);
    }
    let streamed = last.expect("at least one batch");
    let input =
        JoclInput { okb: &union, ckb: &dataset.ckb, ppdb: &dataset.ppdb, corpus: &dataset.corpus };
    let batch = Jocl::new(config).run_with_signals(input, &signals, None);

    let what = format!("scale {scale} seed {seed}, {BATCHES} batches");
    assert_eq!(streamed.np_links, batch.np_links, "{what}: NP links differ");
    assert_eq!(streamed.rp_links, batch.rp_links, "{what}: RP links differ");
    assert_eq!(
        streamed.np_clustering.assignment(),
        batch.np_clustering.assignment(),
        "{what}: NP clusters differ"
    );
    assert_eq!(
        streamed.rp_clustering.assignment(),
        batch.rp_clustering.assignment(),
        "{what}: RP clusters differ"
    );
}

#[test]
#[ignore = "known parity gap; fails until streamed decode matches batch"]
fn streamed_decode_matches_batch_at_scale_0_06_seed_42() {
    assert_streamed_decode_matches_batch(0.06, 42);
}

#[test]
#[ignore = "known parity gap; fails until streamed decode matches batch"]
fn streamed_decode_matches_batch_at_scale_0_12_seed_1() {
    assert_streamed_decode_matches_batch(0.12, 1);
}

#[test]
#[ignore = "known parity gap; fails until streamed decode matches batch"]
fn streamed_decode_matches_batch_at_scale_0_12_seed_3() {
    assert_streamed_decode_matches_batch(0.12, 3);
}
