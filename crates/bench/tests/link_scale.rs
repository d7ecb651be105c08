//! Acceptance gate for the entity-linking subsystem at CI scale
//! (`JOCL_SCALE=0.02`):
//!
//! 1. **Side information lifts link F1** — the alias dictionary that
//!    recovers the `ckb_alias_gap`-dropped surface forms (imported
//!    through the TSV machinery, fingerprint preserved) measurably
//!    improves linking F1 over the no-side-info decode on the seeded
//!    fixture, and changes at least one link — while an *empty* side
//!    table decodes identically to no table at all.
//! 2. **Writer and replica serve identical `LinkReport`s** — a warm
//!    replica booted from the writer's snapshot answers every probed
//!    `link` request with byte-identical `link.v1` frames, and a
//!    replica restored under the *wrong* side table is refused by the
//!    snapshot config fingerprint.
//!
//! Guarded behind `--ignored` like the other scale gates:
//!
//! ```text
//! JOCL_SCALE=0.02 cargo test -p jocl_bench --release --test link_scale -- --ignored
//! ```

use jocl_bench::{env_scale, env_seed};
use jocl_core::signals::build_signals;
use jocl_core::{Jocl, JoclConfig, JoclInput};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_eval::linking_prf;
use jocl_kb::{Okb, SideKb, Triple};
use jocl_serve::{
    format_link, parse_command, parse_link_target, Engine, EngineOptions, FeedRole, LinkRequest,
    Response, ServeConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

fn gate_config(side: Option<Arc<SideKb>>) -> JoclConfig {
    let mut config = JoclConfig { train_epochs: 0, side_info: side, ..Default::default() };
    // As in the other serving gates: a budget under which the engine
    // genuinely converges at this scale.
    config.lbp.max_iters = 100;
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jocl-link-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn alias_dictionary_lifts_link_f1() {
    let seed = env_seed();
    let dataset = reverb45k_like(seed, env_scale());
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let input = JoclInput {
        okb: &dataset.okb,
        ckb: &dataset.ckb,
        ppdb: &dataset.ppdb,
        corpus: &dataset.corpus,
    };

    // The imported dictionary: exactly the aliases the CKB lost, through
    // the TSV import path an operator would use (fingerprint preserved).
    let side = dataset.alias_side_kb(0.9);
    assert!(!side.is_empty(), "the gap must have dropped aliases at this scale");
    let dir = temp_dir("tsv");
    let tsv = dir.join("side.tsv");
    jocl_kb::tsv::write_side_kb(&side, &tsv).unwrap();
    let side = jocl_kb::tsv::read_side_kb(&tsv).unwrap();
    assert_eq!(side.fingerprint(), dataset.alias_side_kb(0.9).fingerprint(), "TSV round trip");

    let out_none = Jocl::new(gate_config(None)).run_with_signals(input, &signals, None);
    let out_side =
        Jocl::new(gate_config(Some(Arc::new(side)))).run_with_signals(input, &signals, None);
    assert!(out_none.diagnostics.lbp.converged && out_side.diagnostics.lbp.converged);

    // The table binds: at least one link decision moved.
    assert!(
        out_none.np_links != out_side.np_links || out_none.rp_links != out_side.rp_links,
        "an imported alias table must change the seeded fixture's decode"
    );

    // …and moves the needle the right way: combined NP+RP link F1.
    let f1_of = |out: &jocl_core::JoclOutput| {
        let np = linking_prf(&out.np_links, &dataset.gold.np_entity);
        let rp = linking_prf(&out.rp_links, &dataset.gold.rp_relation);
        let all = jocl_eval::LinkPrf { tp: np.tp + rp.tp, fp: np.fp + rp.fp, fn_: np.fn_ + rp.fn_ };
        (np.f1(), rp.f1(), all.f1())
    };
    let (np_none, rp_none, all_none) = f1_of(&out_none);
    let (np_side, rp_side, all_side) = f1_of(&out_side);
    println!(
        "link F1 without side info: np {np_none:.4} rp {rp_none:.4} all {all_none:.4}; \
         with the alias dictionary: np {np_side:.4} rp {rp_side:.4} all {all_side:.4}"
    );
    assert!(
        all_side > all_none,
        "the recovered alias dictionary must lift combined link F1: \
         {all_side:.4} vs {all_none:.4}"
    );

    // The inert-table contract at scale: `Some(empty)` ≡ `None`.
    let out_empty = Jocl::new(gate_config(Some(Arc::new(SideKb::new()))))
        .run_with_signals(input, &signals, None);
    assert_eq!(out_empty.np_links, out_none.np_links, "empty table changed np links");
    assert_eq!(out_empty.rp_links, out_none.rp_links, "empty table changed rp links");
    assert_eq!(out_empty.np_clustering.assignment(), out_none.np_clustering.assignment());
    assert_eq!(out_empty.rp_clustering.assignment(), out_none.rp_clustering.assignment());
    std::fs::remove_dir_all(&dir).ok();
}

fn ok(engine: &mut Engine<'_>, line: &str) -> Vec<String> {
    match engine.execute_caught(&parse_command(line).unwrap().unwrap()) {
        Response::Ok(lines) => lines,
        Response::Err(e) => panic!("{line:?} failed: {e}"),
    }
}

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn writer_and_replica_serve_identical_link_reports() {
    let seed = env_seed();
    let dataset = reverb45k_like(seed, env_scale());
    let mut union = Okb::new();
    for (_, t) in dataset.okb.triples() {
        union.ingest_triple(t.clone());
    }
    let pool: Vec<Triple> = union.triples().map(|(_, t)| t.clone()).collect();
    assert!(pool.len() > 96, "gate needs a non-trivial world (JOCL_SCALE too small?)");
    let signals = build_signals(
        &union,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let side = Arc::new(dataset.alias_side_kb(0.9));
    let serve = ServeConfig::builder().compact_threshold(f64::INFINITY).build();

    let dir = temp_dir("replica");
    let mut writer = Engine::open(
        gate_config(Some(side.clone())),
        serve.clone(),
        &dataset.ckb,
        &signals,
        pool.clone(),
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Writer(dir.join("feed.log")),
        },
    );
    let n = pool.len();
    ok(&mut writer, &format!("ingest {}", n - 8));
    ok(&mut writer, "snapshot");
    // A post-snapshot tail so the replica exercises warm catch-up too.
    ok(&mut writer, &format!("ingest {n}"));
    ok(&mut writer, "retract #3");

    // The snapshot fingerprint pins the side-info source: restoring
    // under a different (here: missing) table must be refused, naming
    // the field.
    match Engine::open_replica(
        gate_config(None),
        serve.clone(),
        &dataset.ckb,
        &signals,
        pool.clone(),
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Follower(dir.join("feed.log")),
        },
    ) {
        Err(err) => assert!(err.to_string().contains("side_info"), "{err}"),
        Ok(_) => panic!("a replica without the writer's side table must not boot"),
    }

    let mut replica = Engine::open_replica(
        gate_config(Some(side.clone())),
        serve,
        &dataset.ckb,
        &signals,
        pool,
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Follower(dir.join("feed.log")),
        },
    )
    .expect("replica warm-boot");
    assert_eq!(replica.poll_feed().expect("catch up"), 2, "the post-snapshot tail replayed");

    // Probe the link API on both planes: live surfaces, dictionary-only
    // surfaces, and the canonical URIs the writer itself hands out.
    let wv = writer.read_view();
    let rv = replica.read_view();
    let mut probes: Vec<String> = writer
        .session()
        .session()
        .live_triples()
        .iter()
        .take(12)
        .flat_map(|t| [t.subject.clone(), t.predicate.clone()])
        .collect();
    probes.extend(side.canonical_rows().iter().take(8).map(|(_, s, _, _)| s.to_string()));
    let mut uris = Vec::new();
    let mut compared = 0usize;
    let mut nonempty = 0usize;
    for probe in &probes {
        let req = LinkRequest::surface(probe);
        let (w, r) = (wv.link(&req), rv.link(&req));
        assert_eq!(w, r, "planes diverged on surface {probe:?}");
        assert_eq!(
            format_link(&w),
            format_link(&r),
            "serialized link frames must be byte-identical"
        );
        nonempty += usize::from(!w.is_empty());
        compared += 1;
        uris.extend(w.np.iter().chain(&w.rp).map(|c| c.uri.clone()).take(2));
    }
    uris.sort();
    uris.dedup();
    for uri in &uris {
        let req = LinkRequest {
            target: parse_link_target(uri).expect("served URIs parse"),
            limit: None,
            threshold: None,
        };
        let (w, r) = (wv.link(&req), rv.link(&req));
        assert_eq!(w, r, "planes diverged on {uri}");
        compared += 1;
    }
    println!("compared {compared} link reports ({nonempty} non-empty surface probes)");
    assert!(nonempty > 0, "the probe set must exercise real candidates");
    std::fs::remove_dir_all(&dir).ok();
}
