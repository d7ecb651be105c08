//! Acceptance tests for the durable serving subsystem.
//!
//! * **Retraction parity (proptest)**: after any interleaving of
//!   add/retract/revise deltas the live view decodes identically to a
//!   from-scratch batch run on the surviving triples. Run with caps that do not bind (see the
//!   `jocl_core::incremental` module docs for the cap caveat).
//! * **Kill-and-restart parity (proptest)**: `snapshot → drop session →
//!   restore → apply_delta` is bitwise-identical (full exported state,
//!   messages included) to the uninterrupted session.
//! * **Snapshot failure modes**: missing/truncated/corrupted files and
//!   config mismatches surface as typed `KbError`s naming the file.
//! * **Compaction policy**: the density threshold triggers a cold
//!   rebuild with an unchanged live decode.

use jocl_core::example::figure1;
use jocl_core::signals::build_signals;
use jocl_core::{DeltaOp, Jocl, JoclConfig, JoclInput, Signals};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Ckb, EntityId, KbError, Okb, RelationId, SideKb, Triple};
use jocl_serve::{parse_link_target, snapshot, LinkRequest, ReadView, ServeConfig, ServeSession};

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::OnceLock;

/// A committed read view of `session` (the serving read path).
fn view<'a>(session: &ServeSession<'a>) -> ReadView<'a> {
    ReadView::capture(session, 0, false)
}

fn parity_config() -> JoclConfig {
    JoclConfig {
        train_epochs: 0,
        sgns: SgnsOptions { dim: 16, epochs: 2, ..Default::default() },
        // Blocking caps consumed at arrival time are the one documented
        // source of retraction-parity divergence; lift them so parity is
        // exact for arbitrary interleavings.
        max_group_clique: usize::MAX / 2,
        cross_cap: usize::MAX / 2,
        ..Default::default()
    }
}

struct World {
    ckb: Ckb,
    signals: Signals,
    pool: Vec<Triple>,
}

/// Two small worlds; signals are built over the pool *union* once and
/// frozen (they are a shared serving resource — the reference batch run
/// uses the same ones).
fn worlds() -> &'static Vec<World> {
    static WORLDS: OnceLock<Vec<World>> = OnceLock::new();
    WORLDS.get_or_init(|| {
        [7u64, 23]
            .into_iter()
            .map(|seed| {
                let dataset = reverb45k_like(seed, 0.002);
                let pool: Vec<Triple> = {
                    let mut union = Okb::new();
                    for (_, t) in dataset.okb.triples() {
                        union.ingest_triple(t.clone());
                    }
                    union.triples().map(|(_, t)| t.clone()).collect()
                };
                let mut union = Okb::new();
                for t in &pool {
                    union.ingest_triple(t.clone());
                }
                let signals = build_signals(
                    &union,
                    &dataset.ckb,
                    &dataset.ppdb,
                    &dataset.corpus,
                    &SgnsOptions { dim: 16, epochs: 2, seed, ..Default::default() },
                );
                World { ckb: dataset.ckb, signals, pool }
            })
            .collect()
    })
}

/// Batch-run the surviving triples with the world's frozen signals.
fn batch_on(world: &World, survivors: &[Triple], config: &JoclConfig) -> jocl_core::JoclOutput {
    let mut okb = Okb::new();
    for t in survivors {
        okb.ingest_triple(t.clone());
    }
    let empty_ppdb = jocl_rules::ParaphraseStore::new();
    let corpus: Vec<Vec<String>> = Vec::new();
    let input = JoclInput { okb: &okb, ckb: &world.ckb, ppdb: &empty_ppdb, corpus: &corpus };
    Jocl::new(config.clone()).run_with_signals(input, &world.signals, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of add/retract/revise ops, chopped into random
    /// deltas: the live view equals the from-scratch batch decode on the
    /// survivors.
    #[test]
    fn interleaved_ops_decode_like_batch_on_survivors(
        world_idx in 0usize..2,
        ops_raw in proptest::collection::vec((0usize..4, 0usize..997, 0usize..997), 1..28),
        delta_len in 1usize..6,
    ) {
        let world = &worlds()[world_idx];
        let n = world.pool.len();
        prop_assume!(n > 4);
        let config = parity_config();

        // Materialize ops against the pool and mirror the live set in a
        // trivial model.
        let mut model: HashSet<Triple> = HashSet::new();
        let ops: Vec<DeltaOp> = ops_raw
            .iter()
            .map(|&(kind, i, j)| {
                let a = world.pool[i % n].clone();
                let b = world.pool[j % n].clone();
                match kind {
                    0 | 1 => {
                        model.insert(a.clone());
                        DeltaOp::Add(a)
                    }
                    2 => {
                        model.remove(&a);
                        DeltaOp::Retract(a)
                    }
                    _ => {
                        model.remove(&a);
                        model.insert(b.clone());
                        DeltaOp::Revise { old: a, new: b }
                    }
                }
            })
            .collect();

        let mut session = ServeSession::open(
            config.clone(),
            ServeConfig::builder().compact_threshold(f64::INFINITY).build(),
            &world.ckb,
            &world.signals,
        );
        for delta in ops.chunks(delta_len) {
            let out = session.apply(delta);
            prop_assert!(out.output.diagnostics.lbp.converged, "every delta must converge");
        }

        // Membership: the session's survivors are exactly the model's.
        let survivors = session.session().live_triples();
        let got: HashSet<Triple> = survivors.iter().cloned().collect();
        prop_assert_eq!(&got, &model, "live set diverged from the reference model");

        // Decode parity on the live view.
        let batch = batch_on(world, &survivors, &config);
        let view = session.live_view().expect("session saw at least one delta");
        prop_assert_eq!(view.triples.len(), survivors.len());
        prop_assert_eq!(&view.np_links, &batch.np_links, "np links diverged");
        prop_assert_eq!(&view.rp_links, &batch.rp_links, "rp links diverged");
        prop_assert_eq!(
            view.np_clustering.assignment(),
            batch.np_clustering.assignment(),
            "np clustering diverged"
        );
        prop_assert_eq!(
            view.rp_clustering.assignment(),
            batch.rp_clustering.assignment(),
            "rp clustering diverged"
        );
    }

    /// Kill-and-restart: snapshot, drop the session, restore, apply one
    /// more delta — the full exported state (messages, marginals,
    /// everything) is bitwise-identical to the uninterrupted session's.
    #[test]
    fn snapshot_restore_resumes_bitwise_identically(
        world_idx in 0usize..2,
        split in 1usize..200,
        retract in 0usize..997,
    ) {
        let world = &worlds()[world_idx];
        let n = world.pool.len();
        prop_assume!(n > 6);
        let config = parity_config();
        let split = 1 + split % (n - 2);
        let serve = ServeConfig::builder().compact_threshold(f64::INFINITY).build();

        // Warm a session on a prefix and retract one triple of it.
        let mut uninterrupted =
            ServeSession::open(config.clone(), serve.clone(), &world.ckb, &world.signals);
        uninterrupted.add_all(&world.pool[..split]);
        uninterrupted
            .apply(&[DeltaOp::Retract(world.pool[retract % split].clone())]);

        // Snapshot (in-memory envelope; file round-trip is covered by the
        // unit tests below), then kill.
        let bytes = {
            let mut session = uninterrupted;
            let bytes = snapshot::session_to_bytes(session.session_mut());
            drop(session);
            bytes
        };
        let mut restored_inner =
            snapshot::session_from_bytes(&bytes, config.clone(), &world.ckb, &world.signals)
                .expect("restore");

        // Re-create the uninterrupted session by replaying the same
        // history (deterministic), then drive both with the same tail.
        let mut replay = ServeSession::open(config, serve, &world.ckb, &world.signals);
        replay.add_all(&world.pool[..split]);
        replay.apply(&[DeltaOp::Retract(world.pool[retract % split].clone())]);

        prop_assert_eq!(
            replay.session_mut().export_state(),
            restored_inner.export_state(),
            "restored state must re-export bitwise identically"
        );

        let tail: Vec<Triple> = world.pool[split..].iter().take(8).cloned().collect();
        let a = replay.add_all(&tail);
        let b = restored_inner.apply_delta(&tail);
        prop_assert_eq!(a.stats.lbp.message_updates, b.stats.lbp.message_updates);
        prop_assert_eq!(&a.output.np_links, &b.output.np_links);
        prop_assert_eq!(&a.output.rp_links, &b.output.rp_links);
        prop_assert_eq!(
            a.output.np_clustering.assignment(),
            b.output.np_clustering.assignment()
        );
        prop_assert_eq!(
            replay.session_mut().export_state(),
            restored_inner.export_state(),
            "post-tail states must be bitwise identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Side-information parity: with an imported alias table active the
    /// warm incremental path matches a from-scratch batch run (the graph
    /// build's thread invariance under side information is
    /// `builder::tests::build_is_identical_for_any_thread_count`).
    /// And `Some(empty table)` exports **bitwise-identical** state to
    /// `None` — adding the subsystem changed nothing for sessions that
    /// do not use it.
    #[test]
    fn side_info_decode_is_thread_invariant_and_matches_batch(
        world_idx in 0usize..2,
        rows in proptest::collection::vec((0usize..997, 0usize..997, 1u32..=10), 1..6),
        prefix in 4usize..40,
    ) {
        let world = &worlds()[world_idx];
        let n = world.pool.len();
        prop_assume!(n > 4);

        // A deterministic alias table over the world's own surface forms
        // and curated names, so the imported rows actually bind factors.
        let mut side = SideKb::new();
        for &(i, j, w) in &rows {
            let t = &world.pool[i % n];
            let e = EntityId((j % world.ckb.num_entities()) as u32);
            side.add_entity_link(&t.subject, &world.ckb.entity(e).name, f64::from(w) / 10.0);
            let r = RelationId((j % world.ckb.num_relations()) as u32);
            side.add_relation_link(&t.predicate, &world.ckb.relation(r).name, f64::from(w) / 10.0);
        }
        let side = std::sync::Arc::new(side);
        let prefix = prefix.min(n);
        let survivors: Vec<Triple> = world.pool[..prefix].to_vec();

        let mut config = parity_config();
        config.side_info = Some(side);
        let batch = batch_on(world, &survivors, &config);

        // Incremental (chunked arrival) with side info decodes like batch.
        let mut session =
            ServeSession::open(config, ServeConfig::default(), &world.ckb, &world.signals);
        let split = prefix / 2;
        session.add_all(&survivors[..split]);
        session.add_all(&survivors[split..]);
        let view = session.live_view().expect("session decoded");
        prop_assert_eq!(&view.np_links, &batch.np_links, "np links diverged from batch");
        prop_assert_eq!(&view.rp_links, &batch.rp_links, "rp links diverged from batch");
        prop_assert_eq!(view.np_clustering.assignment(), batch.np_clustering.assignment());
        prop_assert_eq!(view.rp_clustering.assignment(), batch.rp_clustering.assignment());

        // The no-silent-behavior-change contract, at full strength:
        // `Some(empty)` and `None` export bitwise-identical sessions.
        let empty_cfg = {
            let mut c = parity_config();
            c.side_info = Some(std::sync::Arc::new(SideKb::new()));
            c
        };
        let mut a = ServeSession::open(
            parity_config(), ServeConfig::default(), &world.ckb, &world.signals);
        let mut b =
            ServeSession::open(empty_cfg, ServeConfig::default(), &world.ckb, &world.signals);
        a.add_all(&survivors[..split]);
        a.add_all(&survivors[split..]);
        b.add_all(&survivors[..split]);
        b.add_all(&survivors[split..]);
        prop_assert_eq!(
            a.session_mut().export_state(),
            b.session_mut().export_state(),
            "an empty side table must be byte-for-byte inert"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observability parity (PR-10): metric recording is purely
    /// observational — the same ingest produces a bitwise-identical
    /// exported session with recording off and on. (The toggle is the process-global
    /// `JOCL_METRICS` switch the bins set; decode code never reads it,
    /// which is exactly what this pins down.)
    #[test]
    fn decode_is_bitwise_identical_with_metrics_off_and_on(
        world_idx in 0usize..2,
        prefix in 4usize..120,
        split_frac in 1usize..4,
    ) {
        let world = &worlds()[world_idx];
        let n = world.pool.len();
        prop_assume!(n > 6);
        let config = parity_config();
        let serve = ServeConfig::builder().compact_threshold(f64::INFINITY).build();
        let prefix = (1 + prefix % (n - 1)).max(2);
        let split = (prefix * split_frac / 4).clamp(1, prefix - 1);

        let run = |enabled: bool| {
            jocl_obs::set_metrics_enabled(enabled);
            let mut s =
                ServeSession::open(config.clone(), serve.clone(), &world.ckb, &world.signals);
            s.add_all(&world.pool[..split]);
            s.add_all(&world.pool[split..prefix]);
            let state = s.session_mut().export_state();
            jocl_obs::set_metrics_enabled(true);
            state
        };
        prop_assert_eq!(run(false), run(true), "metric recording must never reach the decode");
    }
}

/// File-level round trip plus the `KbError::WithPath` failure modes —
/// every restore failure must name the offending file (the satellite
/// extension of PR 4's `load_params` fix).
#[test]
fn snapshot_file_errors_name_the_file() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let config = ex.config();
    let dir = std::env::temp_dir().join(format!("jocl-serve-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");

    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut session = ServeSession::open(config.clone(), ServeConfig::default(), &ex.ckb, &signals);
    session.add_all(&triples);
    session.apply(&[DeltaOp::Retract(triples[0].clone())]);
    let size = session.snapshot_to(&path).unwrap();
    assert!(size > 0);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "atomic write leaves no temp files: {leftovers:?}");

    // Happy path: restore and compare the live views.
    let restored = ServeSession::restore_from(
        &path,
        config.clone(),
        ServeConfig::default(),
        &ex.ckb,
        &signals,
    )
    .unwrap();
    let (a, b) = (session.live_view().unwrap(), restored.live_view().unwrap());
    assert_eq!(a.np_links, b.np_links);
    assert_eq!(a.np_clustering.assignment(), b.np_clustering.assignment());

    let assert_named = |err: KbError, what: &str| {
        let msg = err.to_string();
        assert!(
            msg.contains("session.snap") || msg.contains("missing.snap"),
            "{what}: error must name the file: {msg}"
        );
        msg
    };

    // Missing file.
    let err = ServeSession::restore_from(
        &dir.join("missing.snap"),
        config.clone(),
        ServeConfig::default(),
        &ex.ckb,
        &signals,
    )
    .unwrap_err();
    assert!(
        matches!(err, KbError::WithPath { ref source, .. } if matches!(**source, KbError::Io(_)))
    );
    assert_named(err, "missing file");

    // Truncated file (torn write): checksum/framing must catch it.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    let err = snapshot::load_session(&path, config.clone(), &ex.ckb, &signals).unwrap_err();
    assert_named(err, "truncated file");

    // Single corrupted payload byte: checksum mismatch.
    let mut corrupt = full.clone();
    let mid = corrupt.len() - 100;
    corrupt[mid] ^= 0x40;
    std::fs::write(&path, &corrupt).unwrap();
    let msg = assert_named(
        snapshot::load_session(&path, config.clone(), &ex.ckb, &signals).unwrap_err(),
        "corrupt payload",
    );
    assert!(msg.contains("checksum"), "corruption should die at the checksum: {msg}");

    // Bad magic: not a snapshot at all.
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    let msg = assert_named(
        snapshot::load_session(&path, config.clone(), &ex.ckb, &signals).unwrap_err(),
        "bad magic",
    );
    assert!(msg.contains("magic"), "{msg}");

    // An intact snapshot of the previous format version dies at the
    // magic, naming both versions, not deep inside a payload section.
    let mut old_version = full.clone();
    old_version[..8].copy_from_slice(b"JOCLSNP2");
    std::fs::write(&path, &old_version).unwrap();
    let msg = assert_named(
        snapshot::load_session(&path, config.clone(), &ex.ckb, &signals).unwrap_err(),
        "old format version",
    );
    assert!(
        msg.contains("bad magic") && msg.contains("JOCLSNP2") && msg.contains("JOCLSNP3"),
        "{msg}"
    );

    // Config mismatch: the fingerprint names the divergent knob.
    std::fs::write(&path, &full).unwrap();
    let mut other = config.clone();
    other.blocking_threshold += 0.125;
    let msg = assert_named(
        snapshot::load_session(&path, other, &ex.ckb, &signals).unwrap_err(),
        "config mismatch",
    );
    assert!(msg.contains("blocking_threshold"), "{msg}");

    // Different serving weights are a config mismatch too: a later
    // compaction would rebuild from `config.pretrained_params`, so a
    // weight swap must fail at restore, not silently diverge then.
    let mut other = config.clone();
    other.pretrained_params = Some(jocl_fg::Params::from_groups(vec![vec![1.0]]));
    let msg = assert_named(
        snapshot::load_session(&path, other, &ex.ckb, &signals).unwrap_err(),
        "weights mismatch",
    );
    assert!(msg.contains("pretrained_params"), "{msg}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The config fingerprint sits inside the checksummed payload: a
/// flipped byte in it is a checksum mismatch at the payload's first
/// byte, naming the file, before any field is compared.
#[test]
fn flipped_fingerprint_byte_is_a_checksum_mismatch() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let config = ex.config();
    let dir = std::env::temp_dir().join(format!("jocl-serve-fprt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut session = ServeSession::open(config.clone(), ServeConfig::default(), &ex.ckb, &signals);
    session.add_all(&triples);
    session.snapshot_to(&path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    // Past the header (magic, length and checksum words), the FPRT tag,
    // the field count and the first name's length: its first letter.
    let header = 24;
    assert_eq!(&bytes[header..header + 4], b"FPRT");
    bytes[header + 4 + 8 + 8] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    let err = snapshot::load_session(&path, config, &ex.ckb, &signals).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("session.snap") && msg.contains("checksum mismatch"), "{msg}");
    match err {
        KbError::WithPath { source, .. } => {
            assert!(matches!(*source, KbError::Snapshot { offset: 24, .. }), "{source}")
        }
        other => panic!("expected a path-annotated error, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Restoring a snapshot taken after an **unconverged** delta must not
/// run inference: the restored state stays bitwise-identical to the
/// snapshot (the next real delta re-primes everything), and the cached
/// decode reports the persisted convergence state honestly.
#[test]
fn restore_of_unconverged_snapshot_runs_no_inference() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut config = ex.config();
    config.lbp.max_iters = 1; // force a non-converged delta
    let dir = std::env::temp_dir().join(format!("jocl-serve-uncvg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");

    let mut session = ServeSession::open(config.clone(), ServeConfig::default(), &ex.ckb, &signals);
    let out = session.add_all(&triples);
    assert!(!out.output.diagnostics.lbp.converged, "fixture must not converge in 1 iteration");
    let before = session.session_mut().export_state();
    session.snapshot_to(&path).unwrap();

    let mut restored =
        ServeSession::restore_from(&path, config, ServeConfig::default(), &ex.ckb, &signals)
            .unwrap();
    let last = restored.last_output().expect("restored decode available");
    assert_eq!(last.diagnostics.lbp.message_updates, 0, "restore must not run inference");
    assert!(!last.diagnostics.lbp.converged, "persisted convergence state is reported");
    assert_eq!(
        restored.session_mut().export_state(),
        before,
        "restore must leave the snapshot state bitwise untouched"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The automatic compaction policy: crossing the density threshold
/// rebuilds cold, reports it on the triggering delta, and leaves the
/// live decode unchanged.
#[test]
fn auto_compaction_triggers_and_preserves_live_decode() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    // Threshold 0: any tombstone triggers compaction.
    let mut session = ServeSession::open(
        ex.config(),
        ServeConfig::builder().compact_threshold(0.0).build(),
        &ex.ckb,
        &signals,
    );
    session.add_all(&triples);
    let view_before: Vec<_> = {
        let v = session.live_view().unwrap();
        v.np_links.clone()
    };
    assert_eq!(session.compactions, 0);

    let out = session.apply(&[DeltaOp::Retract(triples[1].clone())]);
    assert!(out.stats.compacted, "threshold 0 must compact on the first tombstone");
    assert_eq!(session.compactions, 1);
    assert_eq!(session.session().tombstone_density(), 0.0);
    assert_eq!(session.session().len(), 2, "compaction renumbered to the survivors");

    let view = session.live_view().unwrap();
    assert_eq!(view.triples.len(), 2);
    // Survivors keep their links: triple 0 and 2 were slots 0,1 and 4,5.
    assert_eq!(view.np_links[0], view_before[0]);
    assert_eq!(view.np_links[1], view_before[1]);
    assert_eq!(view.np_links[2], view_before[4]);
    assert_eq!(view.np_links[3], view_before[5]);
}

/// `query_phrase` on a captured [`ReadView`] resolves live mentions to
/// their clusters and links, and retracted mentions drop out of the
/// answers.
#[test]
fn query_phrase_reports_clusters_and_respects_retraction() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut session = ServeSession::open(ex.config(), ServeConfig::default(), &ex.ckb, &signals);
    assert!(view(&session).query_phrase("UMD").is_empty(), "no state before the first delta");
    session.add_all(&triples);

    // "UMD" (subject of triple 1) clusters with "University of Maryland"
    // and links to the UMD entity in the figure's joint decode.
    let reports = view(&session).query_phrase("umd");
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.role, "subject");
    assert_eq!(r.entity, Some(ex.e_umd));
    assert!(r.cluster_size >= 2, "UMD must merge with University of Maryland");
    assert!(
        r.cluster_phrases.iter().any(|p| p == "University of Maryland"),
        "{:?}",
        r.cluster_phrases
    );

    // Retract triple 1: the mention disappears from query results and
    // from other mentions' clusters.
    session.apply(&[DeltaOp::Retract(triples[1].clone())]);
    assert!(view(&session).query_phrase("umd").is_empty(), "retracted mentions must not answer");
    let reports = view(&session).query_phrase("University of Maryland");
    assert_eq!(reports.len(), 1);
    assert!(
        reports[0].cluster_phrases.iter().all(|p| p != "UMD"),
        "dead phrases must leave live clusters: {:?}",
        reports[0].cluster_phrases
    );
}

/// `link` on the Figure 1 fixture, answered by a captured [`ReadView`]
/// (the one read path): surface forms resolve to canonical cluster URIs
/// and calibrated CKB candidates; side-information dictionary rows
/// surface as candidates even without a live mention; unknown URIs
/// answer empty rather than erroring; thresholds filter; and a fresh
/// capture sees a retraction.
#[test]
fn link_resolves_surfaces_through_the_read_view() {
    let ex = figure1();
    let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &ex.config().sgns);
    let triples: Vec<Triple> = ex.okb.triples().map(|(_, t)| t.clone()).collect();
    let mut config = ex.config();
    let mut side = SideKb::new();
    // A dictionary row for a surface that never occurs in the OKB, and a
    // paraphrase row for one that does.
    side.add_entity_link("the terrapins", "university of maryland", 0.7);
    side.add_relation_link("be an early member of", "organizations_founded", 0.8);
    config.side_info = Some(std::sync::Arc::new(side));
    let mut session = ServeSession::open(config, ServeConfig::default(), &ex.ckb, &signals);
    assert!(
        view(&session).link(&LinkRequest::surface("umd")).is_empty(),
        "no candidates before the first delta"
    );
    session.add_all(&triples);

    // A live surface form: the cluster URI candidate covers the
    // {UMD, University of Maryland} group, and the link votes put the
    // CKB entity candidate at full confidence.
    let report = view(&session).link(&LinkRequest::surface("UMD"));
    assert_eq!(report.target, "UMD");
    assert!(report.rp.is_empty(), "an NP surface yields no relation candidates: {report:?}");
    let cluster = report
        .np
        .iter()
        .find(|c| c.uri.starts_with("jocl://np/"))
        .expect("a canonical cluster URI candidate");
    assert!(cluster.cluster_size >= 2, "UMD must cluster with University of Maryland");
    assert!(cluster.confidence > 0.0 && cluster.confidence <= 1.0);
    let entity = report
        .np
        .iter()
        .find(|c| c.uri.starts_with(&format!("ckb://entity/{}/", ex.e_umd.idx())))
        .expect("the e_umd link candidate");
    assert_eq!(entity.confidence, 1.0, "both mentions vote e_umd: {entity:?}");
    assert!(entity.support >= 1);

    // Dictionary-only surface: no live mention, but the imported alias
    // row yields the CKB candidate at the import's weight.
    let dict = view(&session).link(&LinkRequest::surface("The Terrapins"));
    assert_eq!(dict.np.len(), 1, "{dict:?}");
    assert!(dict.np[0].uri.starts_with(&format!("ckb://entity/{}/", ex.e_umd.idx())));
    assert_eq!(dict.np[0].confidence, 0.7);
    assert_eq!(dict.np[0].support, 0, "no live mention backs a dictionary row");

    // RP surface: clusters with its paraphrase and links to r_member.
    let rp = view(&session).link(&LinkRequest::surface("be an early member of"));
    assert!(rp.np.is_empty(), "{rp:?}");
    assert!(
        rp.rp.iter().any(|c| c.uri.starts_with(&format!("ckb://relation/{}/", ex.r_member.idx()))),
        "{rp:?}"
    );

    // Round-trip through the URI grammar: asking about the cluster URI
    // itself answers with the cluster at confidence 1 plus its links.
    let req = LinkRequest {
        target: parse_link_target(&cluster.uri).expect("self-produced URIs parse"),
        limit: None,
        threshold: None,
    };
    let by_uri = view(&session).link(&req);
    let selfc =
        by_uri.np.iter().find(|c| c.uri == cluster.uri).expect("the cluster answers for itself");
    assert_eq!(selfc.confidence, 1.0, "{by_uri:?}");
    assert!(by_uri.np.iter().any(|c| c.uri == entity.uri), "member links ride along: {by_uri:?}");

    // Unknown ids answer empty — a miss is not an error.
    let missing = LinkRequest {
        target: parse_link_target("ckb://entity/999999/nobody").unwrap(),
        limit: None,
        threshold: None,
    };
    assert!(view(&session).link(&missing).is_empty());

    // A request-level threshold filters candidates below it.
    let strict = LinkRequest {
        target: jocl_serve::LinkTarget::Surface("the terrapins".into()),
        limit: None,
        threshold: Some(0.9),
    };
    assert!(view(&session).link(&strict).is_empty(), "0.7 dictionary row filtered at 0.9");

    // A request-level limit caps each family; an unlimited request over
    // the same view lists the same candidates first.
    let capped = LinkRequest { target: req.target.clone(), limit: Some(1), threshold: None };
    let capped = view(&session).link(&capped);
    assert_eq!(capped.np.len(), 1, "{capped:?}");
    assert_eq!(capped.np[0], by_uri.np[0]);

    // Retraction is visible to link reads on a fresh capture.
    session.apply(&[DeltaOp::Retract(triples[1].clone())]);
    let after = view(&session).link(&LinkRequest::surface("umd"));
    assert!(after.is_empty(), "retracted mentions must not vote: {after:?}");
}
