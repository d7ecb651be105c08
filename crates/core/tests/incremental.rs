//! The gold correctness property of the streaming subsystem: **N deltas
//! followed by convergence decode identically to a from-scratch batch
//! run on the union** — for the figure-1 worked example, for empty and
//! singleton OKBs, and (proptest) for random datasets replayed as random
//! contiguous arrival batches under any graph-build thread count,
//! sharing one frozen `Signals` per dataset. Sessions run the residual schedule only; a
//! synchronous config is rejected at construction. The retraction
//! extension of the contract — the **live** decode after retract/revise
//! deltas equals a batch run on the survivors — is unit-tested here on
//! figure 1 and property-tested over random op interleavings in the
//! `jocl_serve` crate.

use jocl_core::example::figure1;
use jocl_core::pipeline::ValidationLabels;
use jocl_core::signals::build_signals;
use jocl_core::{
    DeltaOp, IncrementalJocl, Jocl, JoclConfig, JoclInput, JoclOutput, ScheduleMode, Signals,
};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::snap::SnapReader;
use jocl_kb::{Ckb, NpMention, NpSlot, Okb, Triple, TripleId};
use jocl_rules::ParaphraseStore;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Decode equality: links and (canonicalized) cluster assignments.
fn assert_same_decode(incremental: &JoclOutput, batch: &JoclOutput, what: &str) {
    assert_eq!(incremental.np_links, batch.np_links, "{what}: np links diverged");
    assert_eq!(incremental.rp_links, batch.rp_links, "{what}: rp links diverged");
    assert_eq!(
        incremental.np_clustering.assignment(),
        batch.np_clustering.assignment(),
        "{what}: np clustering diverged"
    );
    assert_eq!(
        incremental.rp_clustering.assignment(),
        batch.rp_clustering.assignment(),
        "{what}: rp clustering diverged"
    );
}

#[test]
fn figure1_replayed_one_triple_at_a_time_matches_batch() {
    let ex = figure1();
    let config = ex.config();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &config.sgns);
    let mut session = IncrementalJocl::new(config.clone(), &ex.ckb, &signals);
    let mut last = None;
    for (_, triple) in ex.okb.triples() {
        last = Some(session.apply_delta(std::slice::from_ref(triple)));
    }
    let last = last.expect("three deltas applied");
    for mode in [ScheduleMode::Residual, ScheduleMode::Synchronous] {
        let mut batch_config = config.clone();
        batch_config.lbp.mode = mode;
        let batch = Jocl::new(batch_config).run(ex.input(), None);
        assert_same_decode(&last.output, &batch, &format!("figure1 vs batch {mode:?}"));
    }
    // The decode carries the figure's joint result, not just *a*
    // consistent one.
    let s1 = NpMention { triple: TripleId(0), slot: NpSlot::Subject }.dense();
    let s2 = NpMention { triple: TripleId(1), slot: NpSlot::Subject }.dense();
    assert_eq!(last.output.np_links[s1], Some(ex.e_umd));
    assert_eq!(last.output.np_links[s2], Some(ex.e_umd));
    assert!(last.output.np_clustering.same(s1, s2));
    assert!(last.stats.warm_started, "deltas after the first must warm-start");
}

/// Sessions warm-start with the residual drain only: a synchronous
/// config fails fast at construction and on restore, naming the field.
#[test]
fn sessions_reject_the_synchronous_schedule() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let mut sync = ex.config();
    sync.lbp.mode = ScheduleMode::Synchronous;
    let panic_msg = |err: Box<dyn std::any::Any + Send>| {
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        IncrementalJocl::new(sync.clone(), &ex.ckb, &signals);
    }))
    .unwrap_err();
    assert!(panic_msg(err).contains("lbp.mode"), "the panic names the field");

    let mut session = IncrementalJocl::new(ex.config(), &ex.ckb, &signals);
    session.apply_delta(&ex.okb.triples().map(|(_, t)| t.clone()).collect::<Vec<_>>());
    let bytes = session.export_state();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = IncrementalJocl::import_state(
            &mut SnapReader::new(&bytes),
            sync.clone(),
            &ex.ckb,
            &signals,
        );
    }))
    .unwrap_err();
    assert!(panic_msg(err).contains("lbp.mode"), "restore rejects it too");
}

/// Satellite regression (OKB dedup): re-delivering a triple through
/// `apply_delta` is a no-op — no second mention variables, no
/// double-counted evidence, identical decode.
#[test]
fn reingested_triples_are_no_ops_through_apply_delta() {
    let ex = figure1();
    let config = ex.config();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &config.sgns);
    let mut session = IncrementalJocl::new(config, &ex.ckb, &signals);
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let first = session.apply_delta(&triples);
    assert_eq!(first.stats.appended, 3);
    let vars_before = first.output.diagnostics.num_vars;
    let factors_before = first.output.diagnostics.num_factors;

    // Re-deliver everything, plus an intra-delta duplicate.
    let mut redelivery = triples.clone();
    redelivery.push(triples[0].clone());
    let second = session.apply_delta(&redelivery);
    assert_eq!(second.stats.appended, 0);
    assert_eq!(second.stats.duplicates, 4);
    assert_eq!(second.stats.new_vars, 0, "duplicates must not create variables");
    assert_eq!(second.stats.new_factors, 0, "duplicates must not add evidence");
    assert_eq!(second.stats.lbp.message_updates, 0, "nothing dirty, nothing to converge");
    assert_eq!(second.output.diagnostics.num_vars, vars_before);
    assert_eq!(second.output.diagnostics.num_factors, factors_before);
    assert_same_decode(&second.output, &first.output, "redelivery");
    assert_eq!(session.len(), 3);
}

/// Satellite (empty/singleton hardening): both the batch pipeline and
/// `apply_delta` must produce well-formed output on an empty OKB…
#[test]
fn empty_okb_is_well_formed_in_batch_and_incremental() {
    let okb = Okb::new();
    let ckb = Ckb::new();
    let ppdb = ParaphraseStore::new();
    let corpus: Vec<Vec<String>> = Vec::new();
    let config = JoclConfig::default();
    let signals = build_signals(&okb, &ckb, &ppdb, &corpus, &config.sgns);
    let mut session = IncrementalJocl::new(config.clone(), &ckb, &signals);
    let out = session.apply_delta(&[]);
    assert_eq!(out.stats.appended, 0);
    assert!(out.output.np_links.is_empty());
    assert_eq!(out.output.np_clustering.num_clusters(), 0);
    assert!(out.output.diagnostics.lbp.converged);
    for mode in [ScheduleMode::Residual, ScheduleMode::Synchronous] {
        let mut batch_config = config.clone();
        batch_config.lbp.mode = mode;
        let input = JoclInput { okb: &okb, ckb: &ckb, ppdb: &ppdb, corpus: &corpus };
        let labels = ValidationLabels::empty(&okb);
        let batch = Jocl::new(batch_config).run(input, Some(&labels));
        assert!(batch.np_links.is_empty());
        assert!(batch.rp_links.is_empty());
        assert_eq!(batch.np_clustering.len(), 0);
        assert_eq!(batch.np_clustering.num_clusters(), 0);
        assert_eq!(batch.diagnostics.num_vars, 0);
        assert!(batch.diagnostics.lbp.converged, "an empty system is trivially converged");
        assert_same_decode(&out.output, &batch, &format!("empty vs batch {mode:?}"));
    }
}

/// …and on a single-triple OKB (no blocked pairs → a linking-only or
/// even factor-free graph).
#[test]
fn single_triple_okb_is_well_formed_in_batch_and_incremental() {
    let ex = figure1(); // reuse its CKB so linking variables exist
    let mut okb = Okb::new();
    let triple = ex.okb.triple(TripleId(0)).clone();
    okb.add_triple(triple.clone());
    let config = ex.config();
    let signals = build_signals(&okb, &ex.ckb, &ex.ppdb, &ex.corpus, &config.sgns);
    let mut session = IncrementalJocl::new(config.clone(), &ex.ckb, &signals);
    let out = session.apply_delta(std::slice::from_ref(&triple));
    assert_eq!(out.stats.appended, 1);
    for mode in [ScheduleMode::Residual, ScheduleMode::Synchronous] {
        let mut batch_config = config.clone();
        batch_config.lbp.mode = mode;
        let input = JoclInput { okb: &okb, ckb: &ex.ckb, ppdb: &ex.ppdb, corpus: &ex.corpus };
        let batch = Jocl::new(batch_config).run(input, None);
        assert_eq!(batch.np_links.len(), 2);
        assert_eq!(batch.rp_links.len(), 1);
        assert_eq!(batch.np_clustering.len(), 2);
        assert!(batch.diagnostics.lbp.converged);
        // Subject and object of one triple never share a cluster.
        assert!(!batch.np_clustering.same(0, 1));
        assert_same_decode(&out.output, &batch, &format!("singleton vs batch {mode:?}"));
    }
}

/// Live-slice decode equality against a batch run on the surviving
/// triples: `live` lists the surviving session triple ids in order, so
/// survivor `k` of the batch run corresponds to session triple
/// `live[k]`.
fn assert_live_matches_batch(
    session: &JoclOutput,
    live: &[TripleId],
    batch: &JoclOutput,
    what: &str,
) {
    assert_eq!(batch.rp_links.len(), live.len(), "{what}: survivor count");
    for (bi, &t) in live.iter().enumerate() {
        for slot in 0..2usize {
            assert_eq!(
                session.np_links[t.idx() * 2 + slot],
                batch.np_links[bi * 2 + slot],
                "{what}: np link of survivor {bi} (session triple {t:?}, slot {slot})"
            );
        }
        assert_eq!(
            session.rp_links[t.idx()],
            batch.rp_links[bi],
            "{what}: rp link of survivor {bi}"
        );
    }
    for (bi, &ti) in live.iter().enumerate() {
        for (bj, &tj) in live.iter().enumerate().skip(bi + 1) {
            for (si, sj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                assert_eq!(
                    session.np_clustering.same(ti.idx() * 2 + si, tj.idx() * 2 + sj),
                    batch.np_clustering.same(bi * 2 + si, bj * 2 + sj),
                    "{what}: np co-clustering of survivors {bi}/{bj} slots {si}/{sj}"
                );
            }
            assert_eq!(
                session.rp_clustering.same(ti.idx(), tj.idx()),
                batch.rp_clustering.same(bi, bj),
                "{what}: rp co-clustering of survivors {bi}/{bj}"
            );
        }
    }
}

/// Retracting the middle figure-1 triple must decode, on the live
/// slice, exactly like a batch run on the remaining two — and the dead
/// mentions must drop out of links and merges.
#[test]
fn figure1_retraction_matches_batch_on_survivors() {
    let ex = figure1();
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let config = ex.config();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &config.sgns);

    let mut session = IncrementalJocl::new(config.clone(), &ex.ckb, &signals);
    session.apply_delta(&triples);
    let out = session.apply_ops(&[DeltaOp::Retract(triples[1].clone())]);
    assert_eq!(out.stats.retracted, 1);
    assert!(out.stats.tombstoned_factors > 0, "triple 1 carried factors");
    assert!(out.stats.tombstone_density > 0.0);
    assert_eq!(out.stats.live_triples, 2);
    assert!(out.output.diagnostics.lbp.converged);
    // Dead mentions decode to nothing.
    let s2 = NpMention { triple: TripleId(1), slot: NpSlot::Subject }.dense();
    let o2 = NpMention { triple: TripleId(1), slot: NpSlot::Object }.dense();
    assert_eq!(out.output.np_links[s2], None, "dead subject must unlink");
    assert_eq!(out.output.np_links[o2], None);
    assert_eq!(out.output.rp_links[1], None);
    assert!(!out.output.np_clustering.same(0, s2), "dead mention must not merge with live ones");

    // Reference: batch run on the two survivors with the same frozen
    // signals, under the session's schedule and the synchronous oracle.
    let mut survivors = Okb::new();
    survivors.ingest_triple(triples[0].clone());
    survivors.ingest_triple(triples[2].clone());
    for mode in [ScheduleMode::Residual, ScheduleMode::Synchronous] {
        let mut batch_config = config.clone();
        batch_config.lbp.mode = mode;
        let input = JoclInput { okb: &survivors, ckb: &ex.ckb, ppdb: &ex.ppdb, corpus: &ex.corpus };
        let batch = Jocl::new(batch_config).run_with_signals(input, &signals, None);
        assert_live_matches_batch(
            &out.output,
            &[TripleId(0), TripleId(2)],
            &batch,
            &format!("figure1 retract vs batch {mode:?}"),
        );
    }
}

/// A revision is retract + add under one warm start; re-adding retracted
/// content mints a fresh triple id with fresh variables.
#[test]
fn figure1_revise_and_readd_use_fresh_ids() {
    let ex = figure1();
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let mut session = IncrementalJocl::new(ex.config(), &ex.ckb, &signals);
    session.apply_delta(&triples);

    // Revise triple 1 to a UVA membership claim.
    let new = Triple::new("University of Virginia", "be a member of", "Universitas 21");
    let out = session.apply_ops(&[DeltaOp::Revise { old: triples[1].clone(), new: new.clone() }]);
    assert_eq!(out.stats.revised, 1);
    assert_eq!(out.stats.retracted, 1);
    assert_eq!(out.stats.appended, 1);
    assert_eq!(session.len(), 4, "revision appends physically");
    assert_eq!(session.num_live(), 3);

    // Re-adding the retracted content is an append, not a resurrection.
    let out = session.apply_ops(&[DeltaOp::Add(triples[1].clone())]);
    assert_eq!(out.stats.appended, 1);
    assert_eq!(out.stats.duplicates, 0, "retracted content must not count as duplicate");
    assert_eq!(session.num_live(), 4);
    assert_eq!(out.output.rp_links[1], None, "the old id stays dead");
    assert!(out.output.rp_links[4].is_some(), "the fresh id carries the mention now");

    // Retracting something absent is a counted no-op.
    let out = session.apply_ops(&[DeltaOp::Retract(Triple::new("no", "such", "triple"))]);
    assert_eq!(out.stats.missed_retracts, 1);
    assert_eq!(out.stats.retracted, 0);
    assert_eq!(out.stats.lbp.message_updates, 0, "nothing dirty, nothing to converge");
}

/// Compaction rebuilds cold from the survivors: same live decode,
/// smaller graph, zero tombstone density.
#[test]
fn compaction_preserves_live_decode_and_resets_density() {
    let ex = figure1();
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let mut session = IncrementalJocl::new(ex.config(), &ex.ckb, &signals);
    session.apply_delta(&triples);
    let before = session.apply_ops(&[DeltaOp::Retract(triples[0].clone())]);
    let vars_before = before.output.diagnostics.num_vars;
    assert!(session.tombstone_density() > 0.0);

    let out = session.compact();
    assert!(out.stats.compacted);
    assert_eq!(session.tombstone_density(), 0.0);
    assert_eq!(session.len(), 2, "compaction renumbers to the survivors");
    assert_eq!(session.num_live(), 2);
    assert!(out.output.diagnostics.num_vars < vars_before, "tombstoned vars reclaimed");
    // Live decode is unchanged: survivors were session triples 1 and 2,
    // now compacted to ids 0 and 1.
    assert_live_matches_batch(
        &before.output,
        &[TripleId(1), TripleId(2)],
        &out.output,
        "compaction",
    );
}

/// Kill-and-restart at the core level: export → import resumes with
/// bitwise-identical messages and identical decode on the next delta.
#[test]
fn export_import_state_roundtrip_is_bitwise_warm() {
    let ex = figure1();
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let config = ex.config();
    let mut session = IncrementalJocl::new(config.clone(), &ex.ckb, &signals);
    session.apply_delta(&triples[..2]);
    session.apply_ops(&[DeltaOp::Retract(triples[0].clone())]);
    let bytes = session.export_state();

    let mut restored =
        IncrementalJocl::import_state(&mut SnapReader::new(&bytes), config, &ex.ckb, &signals)
            .unwrap();
    assert_eq!(restored.len(), session.len());
    assert_eq!(restored.num_live(), session.num_live());
    assert_eq!(restored.export_state(), bytes, "restored state must re-export identically");

    // The next delta behaves identically in both sessions.
    let a = session.apply_delta(&triples[2..]);
    let b = restored.apply_delta(&triples[2..]);
    assert_eq!(a.stats.new_vars, b.stats.new_vars);
    assert_eq!(a.stats.lbp.message_updates, b.stats.lbp.message_updates);
    assert_same_decode(&b.output, &a.output, "restored");
    assert_eq!(
        session.export_state(),
        restored.export_state(),
        "post-delta states must stay bitwise identical"
    );
}

// ---------------------------------------------------------------------
// Proptest: random contiguous partitions of random datasets.
// ---------------------------------------------------------------------

struct ParityWorld {
    okb: Okb,
    ckb: Ckb,
    signals: Signals,
    triples: Vec<Triple>,
    /// Batch decode (thread-invariant by the PR-2/PR-3 guarantees, so
    /// one run suffices).
    batch: JoclOutput,
}

fn parity_config() -> JoclConfig {
    JoclConfig {
        train_epochs: 0,
        sgns: SgnsOptions { dim: 16, epochs: 2, ..Default::default() },
        ..Default::default()
    }
}

/// Three small worlds (different seeds), each with signals built once
/// and the union OKB assembled through the same dedup ingest the
/// session uses.
fn parity_worlds() -> &'static Vec<ParityWorld> {
    static WORLDS: OnceLock<Vec<ParityWorld>> = OnceLock::new();
    WORLDS.get_or_init(|| {
        [3u64, 11, 29]
            .into_iter()
            .map(|seed| {
                let dataset = reverb45k_like(seed, 0.002);
                let triples: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
                let mut okb = Okb::new();
                for t in &triples {
                    okb.ingest_triple(t.clone());
                }
                let signals = build_signals(
                    &okb,
                    &dataset.ckb,
                    &dataset.ppdb,
                    &dataset.corpus,
                    &SgnsOptions { dim: 16, epochs: 2, seed, ..Default::default() },
                );
                let input = JoclInput {
                    okb: &okb,
                    ckb: &dataset.ckb,
                    ppdb: &dataset.ppdb,
                    corpus: &dataset.corpus,
                };
                let batch = Jocl::new(parity_config()).run_with_signals(input, &signals, None);
                ParityWorld { okb, ckb: dataset.ckb.clone(), signals, triples, batch }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any contiguous partition of the arrival sequence: the final
    /// delta's decode equals the batch decode on the union.
    #[test]
    fn interleaved_deltas_decode_like_batch(
        world_idx in 0usize..3,
        cuts in proptest::collection::vec(0usize..200, 0..4),
    ) {
        let world = &parity_worlds()[world_idx];
        let n = world.triples.len();

        // Contiguous arrival batches from the random cut points: the
        // union okb (and thus every dense mention index) matches batch.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();

        let mut session = IncrementalJocl::new(parity_config(), &world.ckb, &world.signals);
        let mut last = session.apply_delta(&[]); // empty prefix delta
        let mut appended = 0usize;
        for w in bounds.windows(2) {
            let delta = &world.triples[w[0]..w[1]];
            last = session.apply_delta(delta);
            appended += last.stats.appended;
            prop_assert!(last.output.diagnostics.lbp.converged, "delta LBP must converge");
        }
        prop_assert_eq!(appended, world.okb.len(), "dedup must mirror the union ingest");
        let batch = &world.batch;
        prop_assert_eq!(&last.output.np_links, &batch.np_links, "np links diverged");
        prop_assert_eq!(&last.output.rp_links, &batch.rp_links, "rp links diverged");
        prop_assert_eq!(
            last.output.np_clustering.assignment(),
            batch.np_clustering.assignment(),
            "np clustering diverged"
        );
        prop_assert_eq!(
            last.output.rp_clustering.assignment(),
            batch.rp_clustering.assignment(),
            "rp clustering diverged"
        );
    }
}
