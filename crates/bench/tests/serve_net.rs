//! Acceptance gate for the networked serving plane at CI scale
//! (`JOCL_SCALE=0.02`):
//!
//! 1. **Replica parity is bitwise** — a read replica warm-booted from
//!    the writer's snapshot + cursor sidecar, following the writer's
//!    delta-feed log through an interleaved add/retract/revise stream
//!    (manual compaction included), exports state byte-identical to the
//!    writer's.
//! 2. **Warm catch-up ≥3× cheaper than a cold rebuild** — the message
//!    updates the replica spends replaying the log tail vs a
//!    from-scratch batch run on the writer's live triples.
//! 3. **Concurrent readers never block on writes** — with a large
//!    ingest in flight on the socket front-end, reader connections
//!    complete `stats`/`query` from the published view before the write
//!    lands, and a malformed-command fuzz stream only ever produces
//!    typed `ERR` lines: the server survives, the session stays
//!    consistent.
//!
//! Guarded behind `--ignored` like the other scale gates:
//!
//! ```text
//! JOCL_SCALE=0.02 cargo test -p jocl_bench --release --test serve_net -- --ignored
//! ```

use jocl_bench::{env_scale, env_seed};
use jocl_core::signals::build_signals;
use jocl_core::{Jocl, JoclConfig, JoclInput, Signals};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Ckb, Okb, Triple};
use jocl_serve::{
    parse_command, Engine, EngineOptions, FeedRole, ListenAddr, Response, ServeConfig,
};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

struct World {
    ckb: Ckb,
    signals: Signals,
    pool: Vec<Triple>,
    ppdb: jocl_rules::ParaphraseStore,
    corpus: Vec<Vec<String>>,
}

/// One CI-scale world, built once and shared by both gate tests (the
/// signals are the frozen shared serving resource, as everywhere).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
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
        World { ckb: dataset.ckb, signals, pool, ppdb: dataset.ppdb, corpus: dataset.corpus }
    })
}

fn gate_config() -> JoclConfig {
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    // As in the other serving gates: a budget under which the engine
    // genuinely converges at this scale.
    config.lbp.max_iters = 100;
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jocl-serve-net-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_writer(dir: &Path) -> Engine<'static> {
    let w = world();
    Engine::open(
        gate_config(),
        ServeConfig::builder().compact_threshold(f64::INFINITY).build(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Writer(dir.join("feed.log")),
        },
    )
}

fn ok(engine: &mut Engine<'static>, line: &str) -> Vec<String> {
    match engine.execute_caught(&parse_command(line).unwrap().unwrap()) {
        Response::Ok(lines) => lines,
        Response::Err(e) => panic!("{line:?} failed: {e}"),
    }
}

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn replica_parity_is_bitwise_and_catchup_beats_cold_rebuild() {
    let w = world();
    let dir = temp_dir("parity");
    let mut writer = open_writer(&dir);
    let n = w.pool.len();

    // Phase 1 — the writer's history up to the snapshot: everything but
    // a 48-triple tail, in two batches, plus a retraction.
    ok(&mut writer, &format!("ingest {}", n / 2));
    ok(&mut writer, &format!("ingest {}", n - 48 - n / 2));
    ok(&mut writer, "retract #3");
    ok(&mut writer, "snapshot");
    let snapshot_offset = writer.feed_offset();

    // Phase 2 — the post-snapshot tail the replica's warm catch-up is
    // priced on: the last 48 arrivals interleaved with retract/revise.
    // (Deliberately no `compact` here — a manual compaction is a cold
    // rebuild by definition, replayed and parity-checked in phase 3.)
    ok(&mut writer, &format!("ingest {n}"));
    ok(&mut writer, "retract #10");
    ok(&mut writer, "revise #11 => Gate Corp | be audit by | The Gate");
    ok(&mut writer, "add Gate Corp | headquarter in | Gate City");

    // Replica warm-boot from the snapshot + cursor sidecar.
    let mut replica = Engine::open_replica(
        gate_config(),
        ServeConfig::builder().compact_threshold(f64::INFINITY).build(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions {
            snapshot_path: dir.join("session.snap"),
            feed: FeedRole::Follower(dir.join("feed.log")),
        },
    )
    .expect("replica warm-boot");
    assert_eq!(replica.feed_offset(), snapshot_offset, "cursor sidecar pinned the log offset");

    let updates_at_boot = replica.session().session().total_message_updates;
    let t0 = Instant::now();
    let applied = replica.poll_feed().expect("catch up");
    let catchup_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(applied, 4, "one log entry per post-snapshot write batch");
    assert_eq!(replica.poll_feed().expect("idempotent"), 0);
    let catchup = replica.session().session().total_message_updates - updates_at_boot;

    // 1. Bitwise parity with the writer, full exported state (messages
    //    included) — the replication log preserved batch boundaries, so
    //    the replica took the writer's exact warm-start path.
    let writer_bytes = jocl_serve::snapshot::session_to_bytes(writer.session_mut().session_mut());
    let replica_bytes = jocl_serve::snapshot::session_to_bytes(replica.session_mut().session_mut());
    assert_eq!(
        writer_bytes, replica_bytes,
        "replica state must be bitwise-identical to the writer after catch-up"
    );

    // 2. Warm catch-up vs a cold rebuild of the same final state.
    let live = writer.session().live_view().expect("writer decoded");
    let survivors: Vec<Triple> =
        live.triples.iter().map(|&t| writer.session().session().okb().triple(t).clone()).collect();
    let mut cold_okb = Okb::new();
    for t in &survivors {
        cold_okb.ingest_triple(t.clone());
    }
    let input = JoclInput { okb: &cold_okb, ckb: &w.ckb, ppdb: &w.ppdb, corpus: &w.corpus };
    let t0 = Instant::now();
    let batch = Jocl::new(gate_config()).run_with_signals(input, &w.signals, None);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold = batch.diagnostics.lbp.message_updates;
    println!(
        "replica catch-up: {applied} log entries, {catchup} msg updates in {catchup_ms:.1} ms vs \
         cold rebuild of {} live triples: {cold} msg updates in {cold_ms:.1} ms ({:.2}x updates)",
        survivors.len(),
        cold as f64 / catchup.max(1) as f64,
    );
    assert!(
        catchup * 3 <= cold,
        "warm replica catch-up must be ≥3x cheaper than a cold rebuild: {catchup} vs {cold}"
    );

    // Phase 3 — a manual compaction and a post-compact add on the
    // writer; the replica replays both (triple ids remap wholesale
    // across a compaction, so parity here proves the `Compact` log
    // entry lands at the same point in both streams).
    ok(&mut writer, "compact");
    ok(&mut writer, "add Late Arrival | land after | The Compaction");
    assert_eq!(replica.poll_feed().expect("catch up"), 2);
    let writer_bytes = jocl_serve::snapshot::session_to_bytes(writer.session_mut().session_mut());
    let replica_bytes = jocl_serve::snapshot::session_to_bytes(replica.session_mut().session_mut());
    assert_eq!(
        writer_bytes, replica_bytes,
        "replica must stay bitwise-identical across a replayed compaction"
    );
    std::fs::remove_dir_all(&dir).ok();
}

struct Client {
    reader: BufReader<UnixStream>,
    stream: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Self {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().unwrap());
                    return Self { reader, stream };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("cannot connect to {}: {e}", path.display()),
            }
        }
    }

    fn request(&mut self, line: &str) -> Response {
        writeln!(self.stream, "{line}").unwrap();
        self.stream.flush().unwrap();
        Response::read_from(&mut self.reader).unwrap()
    }

    fn ok(&mut self, line: &str) -> Vec<String> {
        match self.request(line) {
            Response::Ok(lines) => lines,
            Response::Err(e) => panic!("{line:?} failed: {e}"),
        }
    }
}

#[test]
#[ignore = "experiment-scale graphs; run with -- --ignored"]
fn socket_readers_never_block_and_fuzz_never_kills_the_server() {
    let w = world();
    let dir = temp_dir("socket");
    let engine = open_writer(&dir);
    let addr = ListenAddr::Unix(dir.join("serve.sock"));
    let sock = dir.join("serve.sock");
    let stop = AtomicBool::new(false);
    let n = w.pool.len();

    let readers = 4;
    let barrier = Barrier::new(readers + 1);
    let write_done = Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            jocl_serve::net::serve(engine, &addr, &stop, &mut |_| {}).expect("server runs")
        });
        let mut writer = Client::connect(&sock);
        writer.ok("ingest 32");

        // The in-flight write: the rest of the pool in one delta.
        let barrier_ref = &barrier;
        let write_done_ref = &write_done;
        s.spawn(move || {
            barrier_ref.wait();
            writer.ok(&format!("ingest {n}"));
            *write_done_ref.lock().unwrap() = Some(Instant::now());
        });
        let mut handles = Vec::new();
        for _ in 0..readers {
            let sock = &sock;
            handles.push(s.spawn(move || {
                let mut c = Client::connect(sock);
                barrier_ref.wait();
                for _ in 0..25 {
                    let st = c.ok("stats");
                    jocl_serve::parse_stats(&st[0]).expect("well-formed stats line");
                    c.ok("query the gate");
                }
                Instant::now()
            }));
        }
        let finished: Vec<Instant> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let done = loop {
            if let Some(t) = *write_done.lock().unwrap() {
                break t;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        for f in &finished {
            assert!(
                *f < done,
                "a reader was blocked behind the in-flight write ({:?} after it)",
                f.duration_since(done)
            );
        }

        // Malformed-command fuzz against the live server: typed ERRs
        // only, session stays consistent, server stays up.
        let mut c = Client::connect(&sock);
        let before = c.ok("stats");
        for g in [
            "ingest",
            "ingest NaN",
            "ingest -1",
            "add",
            "add a|b",
            "add  | x | y",
            "retract",
            "retract #",
            "retract #999999",
            "revise a | b | c",
            "revise #0 => ",
            "query",
            "stats --verbose",
            "snapshot\u{0}withnul",
            "compact --force",
            "shutdown please",
            "DROP TABLE triples;",
            "\u{1b}[31mgarbage\u{1b}[0m",
        ] {
            match c.request(g) {
                Response::Err(_) => {}
                Response::Ok(lines) => panic!("{g:?} unexpectedly succeeded: {lines:?}"),
            }
        }
        let after = c.ok("stats");
        // Uptime and request/error totals advance with every request —
        // that's the point of the observability plane — so the "state
        // unchanged" claim is made on the parsed session fields, with
        // the registry-sourced fields normalized out.
        let normalize = |lines: &[String]| {
            let mut s = jocl_serve::parse_stats(&lines[0]).expect("well-formed stats line");
            s.uptime_ms = 0;
            s.requests = 0;
            s.errors = 0;
            s.last_compaction_ms = 0;
            s
        };
        assert_eq!(normalize(&before), normalize(&after), "fuzz must not change session state");

        c.ok("shutdown");
        let (engine, stats) = server.join().expect("server thread");
        assert!(stats.requests > 0 && stats.errors >= 18, "{stats:?}");
        assert_eq!(engine.session().session().len(), n, "the full pool landed despite the fuzz");
    });
    std::fs::remove_dir_all(&dir).ok();
}
