//! Integration tests for the networked serving plane (small scale;
//! the CI-scale `serve_net` gate lives in `jocl_bench`).
//!
//! * **Serve-loop hardening**: every malformed command — unparsable,
//!   unknown, dead `#ID` — is a typed `ERR` response that leaves the
//!   session consistent and the loop (stdin semantics and socket
//!   listener alike) alive.
//! * **Line protocol end-to-end**: a unix-socket server answers the
//!   full command vocabulary with framed responses, survives a
//!   garbage fuzz stream, and returns its engine on `shutdown`.
//! * **Concurrent reads**: readers served from the published view
//!   observe a committed (pre- or post-delta) decode, never a torn
//!   one, and complete while a write is in flight.
//! * **Replication**: a follower replaying the writer's log reaches
//!   bitwise-identical exported state, including after manual
//!   compaction and writer restore.
//! * **Read after commit**: reads answered by `Engine::execute` see the
//!   state each command (or replica catch-up, or panicked request)
//!   left — the engine's cached view is never stale.

use jocl_core::signals::build_signals;
use jocl_core::{JoclConfig, Signals};
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::{Ckb, Okb, Triple};
use jocl_serve::{
    parse_command, Command, Engine, EngineOptions, ErrCode, FeedRole, ListenAddr, ReadView,
    Response, ServeConfig, SharedView,
};
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

struct World {
    ckb: Ckb,
    signals: Signals,
    pool: Vec<Triple>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = reverb45k_like(11, 0.002);
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
            &SgnsOptions { dim: 16, epochs: 2, seed: 11, ..Default::default() },
        );
        World { ckb: dataset.ckb, signals, pool }
    })
}

fn config() -> JoclConfig {
    let mut config = JoclConfig {
        train_epochs: 0,
        sgns: SgnsOptions { dim: 16, epochs: 2, ..Default::default() },
        ..Default::default()
    };
    config.lbp.max_iters = 60;
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jocl-net-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_engine(dir: &Path, feed: FeedRole) -> Engine<'static> {
    let w = world();
    Engine::open(
        config(),
        ServeConfig::default(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions { snapshot_path: dir.join("session.snap"), feed },
    )
}

fn ok_lines(resp: Response) -> Vec<String> {
    match resp {
        Response::Ok(lines) => lines,
        Response::Err(e) => panic!("expected OK, got {e}"),
    }
}

fn run(engine: &mut Engine<'static>, line: &str) -> Response {
    engine.execute_caught(&parse_command(line).unwrap().unwrap())
}

/// Satellite: every command's malformed variants produce a typed `ERR`
/// that leaves the session consistent and the loop alive. (The pure
/// parse-layer variants are covered in `protocol::tests`; this covers
/// the state-dependent ones plus end-to-end recovery.)
#[test]
fn malformed_commands_leave_the_session_consistent() {
    let dir = temp_dir("malformed");
    let mut engine = open_engine(&dir, FeedRole::None);
    ok_lines(run(&mut engine, "ingest 10"));
    let stats_before = engine.read_view().stats;

    let expect_err = |engine: &mut Engine<'static>, line: &str, code: ErrCode| {
        let resp = match parse_command(line) {
            Err(e) => Response::Err(e),
            Ok(Some(cmd)) => engine.execute_caught(&cmd),
            Ok(None) => panic!("{line:?} parsed to nothing"),
        };
        match resp {
            Response::Err(e) => assert_eq!(e.code, code, "{line:?} -> {e}"),
            Response::Ok(lines) => panic!("{line:?} unexpectedly succeeded: {lines:?}"),
        }
    };

    // Parse-layer rejections (never reach the engine).
    expect_err(&mut engine, "ingest lots", ErrCode::Parse);
    expect_err(&mut engine, "add one | two", ErrCode::Parse);
    expect_err(&mut engine, "revise a | b | c", ErrCode::Parse);
    expect_err(&mut engine, "retract #x", ErrCode::Parse);
    expect_err(&mut engine, "frobnicate", ErrCode::Unknown);
    // State-layer rejections: dead and out-of-range ids.
    expect_err(&mut engine, "retract #9999", ErrCode::BadId);
    expect_err(&mut engine, "revise #9999 => a | b | c", ErrCode::BadId);
    ok_lines(run(&mut engine, "retract #3"));
    expect_err(&mut engine, "retract #3", ErrCode::BadId); // already dead
                                                           // Snapshot/restore failures are typed, not fatal.
    expect_err(&mut engine, "restore /nonexistent/no.snap", ErrCode::Io);

    // The session stayed consistent: only the one successful retract
    // changed state, and the loop keeps serving.
    let stats_after = engine.read_view().stats;
    assert_eq!(stats_after.triples, stats_before.triples);
    assert_eq!(stats_after.live, stats_before.live - 1);
    assert_eq!(stats_after.ops_applied, stats_before.ops_applied + 1);
    ok_lines(run(&mut engine, "add Acme Corp | be base in | Springfield"));
    assert_eq!(engine.read_view().stats.live, stats_after.live + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: concurrent readers of the published view observe a
/// committed decode — one of the exact states the writer stored, never
/// a torn mixture.
#[test]
fn shared_view_swaps_are_never_torn() {
    let dir = temp_dir("tornview");
    let mut engine = open_engine(&dir, FeedRole::None);
    ok_lines(run(&mut engine, "ingest 12"));
    let view_a: Arc<ReadView> = engine.read_view();
    let stats_a = view_a.stats;
    ok_lines(run(&mut engine, "retract #1"));
    ok_lines(run(&mut engine, "retract #2"));
    let view_b: Arc<ReadView> = engine.read_view();
    let stats_b = view_b.stats;
    assert_ne!(stats_a.version, stats_b.version);
    assert_eq!(stats_b.live, stats_a.live - 2);

    let shared = SharedView::new(view_a.clone());
    let readers = 4;
    let laps = 400;
    let barrier = Barrier::new(readers + 1);
    let observed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..laps {
                    let v = shared.load();
                    // A view is all-A or all-B: its version and its
                    // live count must belong to the same capture.
                    let stats = v.stats;
                    if stats.version == stats_a.version {
                        assert_eq!(stats.live, stats_a.live, "torn view: A version, B state");
                    } else {
                        assert_eq!(stats.version, stats_b.version);
                        assert_eq!(stats.live, stats_b.live, "torn view: B version, A state");
                    }
                    // The decode payload is from the same capture too.
                    let lv = v.live_view().expect("captured after first delta");
                    assert_eq!(lv.triples.len(), stats.live);
                    observed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        barrier.wait();
        for i in 0..laps {
            shared.store(if i % 2 == 0 { view_b.clone() } else { view_a.clone() });
        }
    });
    assert_eq!(observed.load(Ordering::Relaxed), (readers * laps) as u64);
    std::fs::remove_dir_all(&dir).ok();
}

struct Client {
    reader: BufReader<UnixStream>,
    stream: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Self {
        // The server binds asynchronously; retry briefly.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().unwrap());
                    return Self { reader, stream };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
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
}

/// The socket front-end end-to-end: full vocabulary, framed responses,
/// garbage fuzz, graceful shutdown returning the engine.
#[test]
fn unix_socket_server_serves_and_survives_fuzz() {
    let dir = temp_dir("socket");
    let engine = open_engine(&dir, FeedRole::Writer(dir.join("feed.log")));
    let addr = ListenAddr::Unix(dir.join("serve.sock"));
    let stop = AtomicBool::new(false);
    let sock = dir.join("serve.sock");

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            jocl_serve::net::serve(engine, &addr, &stop, &mut |_| {}).expect("server runs")
        });

        let mut c = Client::connect(&sock);
        // Writes and reads through one connection.
        let lines = ok_lines(c.request("ingest 15"));
        assert_eq!(lines.len(), 2, "ingest answers a header + stats line: {lines:?}");
        assert!(lines[0].starts_with("ingest 15"), "{lines:?}");
        ok_lines(c.request("add Foo Inc | be locate in | Bar City"));
        let q = ok_lines(c.request("query foo inc"));
        assert!(q[0].starts_with("query.v1 matches=1"), "{q:?}");
        assert!(q.iter().any(|l| l.contains("Foo Inc")), "query finds the added triple: {q:?}");
        // The typed link API over the same connection: the added phrase
        // resolves to a canonical cluster URI with a confidence, and the
        // frame round-trips through the client-side parser.
        let l = ok_lines(c.request("link foo inc"));
        assert!(l[0].starts_with("link.v1 "), "{l:?}");
        let report = jocl_serve::parse_link(&l).expect("well-formed link.v1 frame");
        assert_eq!(report.target, "foo inc");
        assert!(!report.np.is_empty(), "the live mention yields an np candidate: {l:?}");
        assert!(report.np[0].uri.starts_with("jocl://np/"), "{:?}", report.np[0]);
        assert!(report.np[0].confidence > 0.0 && report.np[0].confidence <= 1.0);
        // An unknown URI is an *empty* OK report, not an error.
        let l = ok_lines(c.request("link ckb://entity/999999/nobody"));
        let empty = jocl_serve::parse_link(&l).expect("well-formed link.v1 frame");
        assert!(empty.is_empty(), "unknown targets answer empty, not ERR: {l:?}");
        // Escaped/quoted payloads are ordinary surface text on this line
        // protocol: a typed OK frame (empty alias hit here), never a
        // closed connection.
        let l = ok_lines(c.request("link \"weird \\\" payload\""));
        let report = jocl_serve::parse_link(&l).expect("well-formed link.v1 frame");
        assert_eq!(report.target, "\"weird \\\" payload\"");
        assert!(report.is_empty(), "{l:?}");
        let st = ok_lines(c.request("stats"));
        assert!(st[0].contains("triples=16"), "{st:?}");
        ok_lines(c.request("retract #15"));
        let q = ok_lines(c.request("query foo inc"));
        assert!(q[0].starts_with("query.v1 matches=0"), "retract is visible to reads: {q:?}");
        let l = ok_lines(c.request("link foo inc"));
        assert!(
            jocl_serve::parse_link(&l).unwrap().is_empty(),
            "retract is visible to link reads: {l:?}"
        );
        ok_lines(c.request("snapshot"));
        let restored = ok_lines(c.request("restore"));
        assert!(restored[0].contains("restored warm"), "{restored:?}");

        // Malformed-command fuzz: every line gets an ERR, nothing dies.
        let garbage = [
            "ingest",
            "ingest NaN",
            "add",
            "add a|b",
            "retract #",
            "retract #77777",
            "revise x => ",
            "query",
            "link",
            "link limit=3",
            "link x limit=0",
            "link x threshold=maybe",
            "link x threshold=1.5",
            "link jocl://banana/3",
            "link jocl://np/notanum",
            "link \"escaped \\\" payload\" limit=zero",
            "stats extra",
            "compact now",
            "%$#@!",
            "shutdown please",
            "\u{7f}\u{1b}[2J",
        ];
        for g in &garbage {
            match c.request(g) {
                Response::Err(_) => {}
                Response::Ok(lines) => panic!("{g:?} unexpectedly succeeded: {lines:?}"),
            }
        }
        // A second connection still works after the fuzz.
        let mut c2 = Client::connect(&sock);
        let st = ok_lines(c2.request("stats"));
        assert!(st[0].starts_with("stats.v1 triples="), "{st:?}");
        jocl_serve::parse_stats(&st[0]).expect("well-formed stats.v1 line");
        // The metrics exposition plane is served straight from the view
        // thread: a versioned frame, byte-identical across two reads of
        // an idle server (a metrics read records nothing).
        let m1 = ok_lines(c2.request("metrics"));
        assert!(m1[0].starts_with("metrics.v1 entries="), "{m1:?}");
        let m2 = ok_lines(c2.request("metrics"));
        assert_eq!(m1, m2, "idle metrics reads must be byte-identical");
        let parsed = jocl_serve::parse_metrics(&m1).expect("well-formed metrics.v1 frame");
        assert!(
            parsed.iter().any(|(k, v)| k == "jocl_net_connections_total" && *v >= 2),
            "{parsed:?}"
        );
        assert_eq!(ok_lines(c2.request("quit")), vec!["bye".to_string()]);

        ok_lines(c.request("shutdown"));
        let (engine, stats) = server.join().expect("server thread");
        assert!(stats.connections >= 2, "{stats:?}");
        assert_eq!(stats.errors, garbage.len() as u64, "{stats:?}");
        // The serve loop *returned* the engine (no process exit): the
        // restored session is intact and still usable in-process.
        assert_eq!(engine.session().session().len(), 16);
        assert!(!sock.exists(), "socket file cleaned up");
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Readers served from the published view complete while a write is in
/// flight, and only ever see committed versions.
#[test]
fn concurrent_readers_complete_during_a_write() {
    let dir = temp_dir("readers");
    let engine = open_engine(&dir, FeedRole::None);
    let addr = ListenAddr::Unix(dir.join("serve.sock"));
    let stop = AtomicBool::new(false);
    let sock = dir.join("serve.sock");

    let readers = 4;
    let barrier = Barrier::new(readers + 1);
    let write_done = std::sync::Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            jocl_serve::net::serve(engine, &addr, &stop, &mut |_| {}).expect("server runs")
        });
        let mut writer = Client::connect(&sock);
        ok_lines(writer.request("ingest 5"));

        let barrier = &barrier;
        let write_done = &write_done;
        s.spawn(move || {
            barrier.wait();
            // The slow write: the rest of the pool in one delta.
            ok_lines(writer.request("ingest 100000"));
            *write_done.lock().unwrap() = Some(Instant::now());
        });
        let mut handles = Vec::new();
        for _ in 0..readers {
            let sock = &sock;
            handles.push(s.spawn(move || {
                let mut c = Client::connect(sock);
                barrier.wait();
                let mut seen_versions = Vec::new();
                for _ in 0..20 {
                    let st = ok_lines(c.request("stats"));
                    let parsed =
                        jocl_serve::parse_stats(&st[0]).expect("stats line carries the version");
                    seen_versions.push(parsed.version);
                }
                (Instant::now(), seen_versions)
            }));
        }
        let results: Vec<(Instant, Vec<u64>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Wait for the write to land, then check ordering.
        let done = loop {
            if let Some(t) = *write_done.lock().unwrap() {
                break t;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        for (finished, versions) in &results {
            assert!(
                *finished < done,
                "a reader was blocked behind the in-flight write \
                 (reader finished {:?} after the write)",
                finished.duration_since(done)
            );
            for v in versions {
                assert!(*v == 1 || *v == 2, "only committed versions are observable, got v{v}");
            }
        }
        let mut c = Client::connect(&sock);
        let st = ok_lines(c.request("stats"));
        assert!(st[0].contains("version=2"), "the write committed and published: {st:?}");
        ok_lines(c.request("shutdown"));
        server.join().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A follower replaying the writer's log — warm-booted from a snapshot
/// mid-stream — reaches bitwise-identical exported state, through
/// interleaved add/retract/revise, manual compaction and writer restore.
#[test]
fn replica_reaches_bitwise_identical_state() {
    let dir = temp_dir("replica");
    let feed = dir.join("feed.log");
    let mut writer = open_engine(&dir, FeedRole::Writer(feed.clone()));

    ok_lines(run(&mut writer, "ingest 10"));
    ok_lines(run(&mut writer, "retract #4"));
    ok_lines(run(&mut writer, "snapshot"));

    // The replica warm-boots from the snapshot + cursor sidecar...
    let w = world();
    let mut replica = Engine::open_replica(
        config(),
        ServeConfig::default(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions { snapshot_path: dir.join("session.snap"), feed: FeedRole::Follower(feed) },
    )
    .expect("replica warm-boot");
    assert_eq!(replica.session().session().len(), 10, "restored the snapshot state");
    assert!(replica.feed_offset() > 0, "cursor sidecar pinned the log offset");

    // ...while the writer keeps going: interleaved ops, a manual
    // compact (logged), a batch with revisions.
    ok_lines(run(&mut writer, "ingest 6"));
    ok_lines(run(&mut writer, "revise #7 => Foo Inc | be locate in | Bar City"));
    ok_lines(run(&mut writer, "retract #2"));
    ok_lines(run(&mut writer, "compact"));
    ok_lines(run(&mut writer, "add Acme Corp | be base in | Springfield"));

    // Writes on the replica plane are refused with a typed error.
    match run(&mut replica, "add X | y | Z") {
        Response::Err(e) => assert_eq!(e.code, ErrCode::ReadOnly),
        Response::Ok(l) => panic!("replica accepted a write: {l:?}"),
    }

    let applied = replica.poll_feed().expect("catch up");
    assert!(applied >= 5, "replayed the writer's batches, got {applied}");
    assert_eq!(replica.poll_feed().expect("idempotent"), 0, "already caught up");

    assert_eq!(
        replica.session().session().len(),
        writer.session().session().len(),
        "same store length"
    );
    let writer_bytes = jocl_serve::snapshot::session_to_bytes(writer.session_mut().session_mut());
    let replica_bytes = jocl_serve::snapshot::session_to_bytes(replica.session_mut().session_mut());
    assert_eq!(writer_bytes, replica_bytes, "replica state is bitwise-identical to the writer");

    // Writer restore truncates the log to the snapshot's offset, so the
    // replica never replays retired operations; post-restore writes
    // flow again. (The replica itself would re-boot in practice; here
    // we just verify the log contract.)
    let before_restore = writer.feed_offset();
    ok_lines(run(&mut writer, "restore"));
    let after_restore = writer.feed_offset();
    assert!(after_restore < before_restore, "restore rewound the log");
    ok_lines(run(&mut writer, "add Post Restore | flow | Again"));
    assert!(writer.feed_offset() > after_restore, "the log grows again after restore");
    std::fs::remove_dir_all(&dir).ok();
}

/// Answer `query`/`link`/`stats` for `phrase` through `Engine::execute`
/// and check each against a fresh capture of the session (registry
/// fields of `stats` aside); returns the query frame's header.
fn reads_match_a_fresh_capture(engine: &mut Engine<'static>, phrase: &str) -> String {
    let fresh = ReadView::capture(engine.session(), engine.version(), engine.is_replica());
    for line in [format!("query {phrase}"), format!("link {phrase}")] {
        let cmd = parse_command(&line).unwrap().unwrap();
        assert_eq!(engine.execute(&cmd), fresh.answer(&cmd).unwrap(), "{line}: stale view");
    }
    let session_fields = |resp: Response| {
        let mut s = jocl_serve::parse_stats(&ok_lines(resp)[0]).expect("stats.v1 line");
        (s.uptime_ms, s.requests, s.errors, s.last_compaction_ms) = (0, 0, 0, 0);
        s
    };
    assert_eq!(
        session_fields(engine.execute(&Command::Stats)),
        session_fields(fresh.answer(&Command::Stats).unwrap()),
        "stats: stale view"
    );
    ok_lines(engine.execute(&parse_command(&format!("query {phrase}")).unwrap().unwrap())).remove(0)
}

/// The engine caches its read view; every state change must recapture
/// it. Checked on the stdin plane (`Engine::execute`) right after an
/// add, a retract, a manual compact, a restore, a follower's
/// `poll_feed` and a request that panicked mid-apply.
#[test]
fn stdin_reads_see_the_state_after_every_commit() {
    let dir = temp_dir("readcommit");
    let feed = dir.join("feed.log");
    let mut writer = open_engine(&dir, FeedRole::Writer(feed.clone()));
    let widget = "add Acme Widgets | be base in | Springfield";
    ok_lines(run(&mut writer, "ingest 10"));
    reads_match_a_fresh_capture(&mut writer, "acme widgets");
    ok_lines(run(&mut writer, "snapshot"));

    ok_lines(run(&mut writer, widget));
    let q = reads_match_a_fresh_capture(&mut writer, "acme widgets");
    assert!(q.starts_with("query.v1 matches=1"), "add: {q}");

    ok_lines(run(&mut writer, "retract Acme Widgets | be base in | Springfield"));
    let q = reads_match_a_fresh_capture(&mut writer, "acme widgets");
    assert!(q.starts_with("query.v1 matches=0"), "retract: {q}");

    ok_lines(run(&mut writer, widget));
    let compactions = writer.read_view().stats.compactions;
    ok_lines(run(&mut writer, "compact"));
    reads_match_a_fresh_capture(&mut writer, "acme widgets");
    assert_eq!(writer.read_view().stats.compactions, compactions + 1, "compact");

    ok_lines(run(&mut writer, "restore"));
    let q = reads_match_a_fresh_capture(&mut writer, "acme widgets");
    assert!(q.starts_with("query.v1 matches=0"), "restore rewinds past the add: {q}");

    // A follower warm-boots from the snapshot, then catches up on a
    // post-restore write.
    let w = world();
    let mut replica = Engine::open_replica(
        config(),
        ServeConfig::default(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions { snapshot_path: dir.join("session.snap"), feed: FeedRole::Follower(feed) },
    )
    .expect("replica warm-boot");
    reads_match_a_fresh_capture(&mut replica, "beta gadgets");
    ok_lines(run(&mut writer, "add Beta Gadgets | be base in | Springfield"));
    assert_eq!(replica.poll_feed().expect("catch up"), 1);
    let q = reads_match_a_fresh_capture(&mut replica, "beta gadgets");
    assert!(q.starts_with("query.v1 matches=1"), "poll_feed: {q}");

    // A non-finite weight passes the shape check at open but panics the
    // first LBP run — after the delta's triples were ingested.
    let mut poisoned = config();
    let fs = poisoned.features;
    let mut params = jocl_fg::Params::new();
    for len in [
        fs.np_canon_len(),
        fs.rp_canon_len(),
        fs.np_canon_len(),
        fs.entity_link_len(),
        fs.relation_link_len(),
        fs.entity_link_len(),
    ] {
        params.add_group(len, 2.0);
    }
    for _ in 0..8 {
        params.add_group(1, f64::NAN);
    }
    poisoned.pretrained_params = Some(params);
    let mut engine = Engine::open(
        poisoned,
        ServeConfig::default(),
        &w.ckb,
        &w.signals,
        w.pool.clone(),
        EngineOptions { snapshot_path: dir.join("poisoned.snap"), feed: FeedRole::None },
    );
    match run(&mut engine, "ingest 5") {
        Response::Err(e) => assert_eq!(e.code, ErrCode::Panic, "{e}"),
        Response::Ok(l) => panic!("a NaN weight must panic the apply: {l:?}"),
    }
    reads_match_a_fresh_capture(&mut engine, "acme widgets");
    assert_eq!(engine.read_view().stats.triples, 5, "the panicked delta's triples were ingested");
    std::fs::remove_dir_all(&dir).ok();
}
