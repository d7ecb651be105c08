//! `serve`: the shipped `serve` binary runs as a writer child on a unix
//! socket, warmed in set-up with `ingest` and snapshotted. The benchmark
//! then drives two closed-loop connections on two threads for the
//! measured window:
//!
//! * a writer sending `ingest 8`, `add`, `retract` and `revise`;
//! * a reader sending skewed `link`, `query` and `stats` over phrases of
//!   the warm triples.
//!
//! Latency is client-side, from send to the full response. Afterwards an
//! in-process replica warm-boots with `Engine::open_replica` from the
//! pre-traffic snapshot and `poll_feed`s the writer's log until it has
//! caught up; its state must then be bitwise-equal to the writer's. Every
//! response must parse (`parse_query`, `parse_link`, `parse_stats`); an
//! `ERR` or an unparsable frame counts as a failed operation.

use crate::common::{
    mean, median, peak_rss_mb, percentile, secs, world_seeds, LiveDecode, Quality, Report, Rng,
    TestSplit,
};
use crate::spans::{between, parse_tsv, Fold};
use crate::{Layers, Opts};
use jocl_core::{build_signals, JoclConfig, ScheduleMode, Signals};
use jocl_datagen::{reverb45k_like, Dataset};
use jocl_embed::SgnsOptions;
use jocl_kb::{FeedCursor, Triple};
use jocl_serve::{
    parse_link, parse_metrics, parse_query, parse_stats, Engine, EngineOptions, FeedRole, Response,
    ServeConfig, ServeSession,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// World scale and warm-up size (triples ingested before the traffic).
const SIZES: (f64, usize) = (0.1, 2400);
const TINY_SIZES: (f64, usize) = (0.006, 150);
/// Worlds drawn from the seed per run, each served by its own writer;
/// the metrics pool their requests, so one unusual world moves them less.
const WORLDS: usize = 3;
/// The warm-up ingests its triples in this many `ingest` commands.
const WARM_BATCHES: usize = 4;
/// Pool triples at the end of the world kept for `add` commands.
const ADD_RESERVE: usize = 400;

const WRITE_CMDS: [&str; 4] = ["ingest", "add", "retract", "revise"];
const READ_CMDS: [&str; 3] = ["query", "link", "stats"];

/// The configuration the `serve` binary builds from its defaults with
/// `JOCL_SCHEDULE=residual`; the in-process replica must match it (the
/// snapshot fingerprint refuses anything else).
fn config() -> JoclConfig {
    let mut config = JoclConfig { train_epochs: 0, ..Default::default() };
    config.lbp.mode = ScheduleMode::Residual;
    config
}

/// The world the child generates from the same seed and scale, rebuilt
/// in-process for the traffic plan, the replica and the scoring.
struct World {
    seed: u64,
    dataset: Dataset,
    signals: Signals,
    /// The child's `ingest` pool: the world's triples in order.
    pool: Vec<Triple>,
}

impl World {
    fn new(opts: &Opts, seed: u64) -> (Self, f64) {
        let dataset = reverb45k_like(seed, scale(opts));
        let pool: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
        let sgns = SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() };
        let t0 = Instant::now();
        let signals =
            build_signals(&dataset.okb, &dataset.ckb, &dataset.ppdb, &dataset.corpus, &sgns);
        (Self { seed, dataset, signals, pool }, secs(t0))
    }
}

fn scale(opts: &Opts) -> f64 {
    if opts.tiny {
        TINY_SIZES.0
    } else {
        SIZES.0
    }
}

fn warm_n(opts: &Opts) -> usize {
    if opts.tiny {
        TINY_SIZES.1
    } else {
        SIZES.1
    }
}

/// A `serve` child process; killed and reaped on drop if still running.
struct Server {
    child: Child,
    stderr: Option<JoinHandle<String>>,
    sock: PathBuf,
}

impl Server {
    /// Start the writer in a fresh directory (relative to the working
    /// directory, which keeps the socket path short).
    fn spawn(opts: &Opts, seed: u64, dir: &Path, traced: bool) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the run directory");
        let sock = dir.join("s.sock");
        let mut cmd = Command::new(&opts.serve_bin);
        for knob in
            ["JOCL_COMPACT_THRESHOLD", "JOCL_MSG_STORE", "JOCL_SIDE_INFO", "JOCL_LINK_THRESHOLD"]
        {
            cmd.env_remove(knob);
        }
        let mut child = cmd
            .env("JOCL_SCALE", scale(opts).to_string())
            .env("JOCL_SEED", seed.to_string())
            .env("JOCL_SCHEDULE", "residual")
            .env("JOCL_LISTEN", format!("unix:{}", sock.display()))
            .env("JOCL_SNAPSHOT_DIR", dir)
            .env("JOCL_METRICS", "on")
            .env("JOCL_TRACE", if traced { "on" } else { "off" })
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {:?}: {e}", opts.serve_bin));
        let mut pipe = child.stderr.take().expect("piped stderr");
        let stderr = std::thread::spawn(move || {
            let mut s = String::new();
            let _ = pipe.read_to_string(&mut s);
            s
        });
        Self { child, stderr: Some(stderr), sock }
    }

    fn connect(&mut self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
                    return Client { reader, stream };
                }
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        panic!("serve child exited before listening ({status}): {}", self.stderr());
                    }
                    assert!(Instant::now() < deadline, "cannot connect to {:?}: {e}", self.sock);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Send `shutdown` over `client`, wait for the exit, return stderr.
    fn shutdown(mut self, mut client: Client) -> String {
        let _ = client.request("shutdown");
        drop(client);
        let status = self.child.wait().expect("wait for the serve child");
        assert!(status.success(), "serve child failed: {status}: {}", self.stderr());
        self.stderr()
    }

    fn stderr(&mut self) -> String {
        self.stderr.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    stream: UnixStream,
}

impl Client {
    fn request(&mut self, line: &str) -> std::io::Result<Response> {
        writeln!(self.stream, "{line}")?;
        self.stream.flush()?;
        Response::read_from(&mut self.reader)
    }

    /// A request that must succeed (set-up and bookkeeping commands).
    fn ok(&mut self, line: &str) -> Vec<String> {
        match self.request(line) {
            Ok(Response::Ok(lines)) => lines,
            Ok(Response::Err(e)) => panic!("{line:?} failed: {e}"),
            Err(e) => panic!("{line:?} failed: {e}"),
        }
    }

    fn metrics(&mut self) -> HashMap<String, u64> {
        parse_metrics(&self.ok("metrics"))
            .expect("a well-formed metrics frame")
            .into_iter()
            .collect()
    }
}

/// Start a writer and warm it: `ingest` the first triples in a few
/// batches, then `snapshot` (the replica's starting point).
fn warm_server(opts: &Opts, seed: u64, dir: &Path, traced: bool) -> (Server, Client) {
    let mut server = Server::spawn(opts, seed, dir, traced);
    let mut client = server.connect();
    let warm = warm_n(opts);
    let chunk = warm.div_ceil(WARM_BATCHES);
    let mut done = 0;
    while done < warm {
        let n = chunk.min(warm - done);
        client.ok(&format!("ingest {n}"));
        done += n;
    }
    client.ok("snapshot");
    (server, client)
}

fn fmt_triple(t: &Triple) -> String {
    format!("{} | {} | {}", t.subject, t.predicate, t.object)
}

/// One cycle of the write mix, as `WritePlan::write` kinds: seven
/// `ingest 8`, then one `add`, `retract` and `revise`, shuffled per cycle.
/// Fixed shares keep the latency percentiles from drifting with the draw.
const WRITE_CYCLE: [usize; 10] = [0, 0, 0, 0, 0, 0, 0, 1, 2, 3];

/// The writer's command generator: mirrors the child's pool cursor, so
/// it knows which content is live and can retract or revise the newest
/// live arrival.
struct WritePlan<'w> {
    pool: &'w [Triple],
    rng: Rng,
    queue: Vec<usize>,
    cursor: usize,
    ingest_end: usize,
    add_next: usize,
    live: HashSet<Triple>,
    /// Every content the writer has seen or will ingest (revisions
    /// must be new content).
    known: HashSet<Triple>,
    recent: Vec<Triple>,
    warm: usize,
}

impl<'w> WritePlan<'w> {
    fn new(pool: &'w [Triple], warm: usize, seed: u64) -> Self {
        let ingest_end = pool.len().saturating_sub(ADD_RESERVE).max(warm);
        Self {
            pool,
            rng: Rng::new(seed, 2),
            queue: Vec::new(),
            cursor: warm,
            ingest_end,
            add_next: pool.len(),
            live: pool[..warm].iter().cloned().collect(),
            known: pool.iter().cloned().collect(),
            recent: Vec::new(),
            warm,
        }
    }

    fn arrive(&mut self, t: &Triple) {
        if self.live.insert(t.clone()) {
            self.recent.push(t.clone());
        }
    }

    /// The next write command, or `None` once the pool and the recent
    /// arrivals are both used up.
    fn next(&mut self) -> Option<String> {
        for _ in 0..2 * WRITE_CYCLE.len() {
            if self.queue.is_empty() {
                self.queue = WRITE_CYCLE.to_vec();
                for i in (1..self.queue.len()).rev() {
                    let j = self.rng.below(i + 1);
                    self.queue.swap(i, j);
                }
            }
            let kind = self.queue.pop().expect("a refilled queue");
            if let Some(line) = self.write(kind) {
                return Some(line);
            }
        }
        None
    }

    /// A write of `kind` (0 ingest, 1 add, 2 retract, 3 revise), or
    /// `None` if its source is used up.
    fn write(&mut self, kind: usize) -> Option<String> {
        match kind {
            0 if self.cursor + 8 <= self.ingest_end => {
                for i in self.cursor..self.cursor + 8 {
                    let t = self.pool[i].clone();
                    self.arrive(&t);
                }
                self.cursor += 8;
                Some("ingest 8".into())
            }
            1 => {
                while self.add_next > self.ingest_end {
                    self.add_next -= 1;
                    let t = self.pool[self.add_next].clone();
                    if !self.live.contains(&t) {
                        self.arrive(&t);
                        return Some(format!("add {}", fmt_triple(&t)));
                    }
                }
                None
            }
            2 | 3 => {
                let old = self.recent.pop()?;
                self.live.remove(&old);
                if kind == 2 {
                    return Some(format!("retract {}", fmt_triple(&old)));
                }
                let new = loop {
                    let donor = &self.pool[self.rng.below(self.warm)];
                    let t = Triple::new(&old.subject, &old.predicate, &donor.object);
                    if self.known.insert(t.clone()) {
                        break t;
                    }
                };
                self.arrive(&new);
                Some(format!("revise {} => {}", fmt_triple(&old), fmt_triple(&new)))
            }
            _ => None,
        }
    }
}

/// Distinct NP and RP phrases of the warm triples, in first-appearance
/// order (the reader's skew makes the head hot).
fn read_phrases(pool: &[Triple], warm: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for t in &pool[..warm] {
        for p in [&t.subject, &t.predicate, &t.object] {
            if seen.insert(p.clone()) {
                out.push(p.clone());
            }
        }
    }
    out
}

/// Client-side results of one traffic window.
#[derive(Default)]
struct Traffic {
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    window_s: f64,
}

impl Traffic {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// Whether a read response is a well-formed frame of its command.
fn read_parses(kind: usize, lines: &[String]) -> bool {
    match kind {
        0 => parse_query(lines).is_ok(),
        1 => parse_link(lines).is_ok(),
        _ => lines.len() == 1 && parse_stats(&lines[0]).is_ok(),
    }
}

/// Drive the writer and reader connections for `seconds`.
fn traffic(
    server: &mut Server,
    writer: &mut Client,
    world: &World,
    opts: &Opts,
    seconds: f64,
) -> Traffic {
    let warm = warm_n(opts);
    let phrases = read_phrases(&world.pool, warm);
    let mut reader = server.connect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let (mut w, r) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let mut t = Traffic::default();
            let mut rng = Rng::new(world.seed, 3);
            while Instant::now() < deadline {
                let roll = rng.unit();
                let kind = if roll < 0.45 {
                    0
                } else if roll < 0.9 {
                    1
                } else {
                    2
                };
                let line = match kind {
                    0 => format!("query {}", phrases[rng.skewed(phrases.len())]),
                    1 => format!("link {}", phrases[rng.skewed(phrases.len())]),
                    _ => "stats".to_string(),
                };
                let sent = Instant::now();
                let resp = reader.request(&line);
                t.read_ms.push(secs(sent) * 1e3);
                t.attempted += 1;
                match resp {
                    Ok(Response::Ok(lines)) if read_parses(kind, &lines) => {}
                    Ok(Response::Ok(lines)) => t.fail(format!("{line:?} -> unparsable {lines:?}")),
                    Ok(Response::Err(e)) => t.fail(format!("{line:?} -> {e}")),
                    Err(e) => t.fail(format!("{line:?} -> {e}")),
                }
            }
            t
        });
        let mut t = Traffic::default();
        let mut plan = WritePlan::new(&world.pool, warm, world.seed);
        while Instant::now() < deadline {
            let Some(line) = plan.next() else { break };
            let sent = Instant::now();
            let resp = writer.request(&line);
            t.write_ms.push(secs(sent) * 1e3);
            t.attempted += 1;
            match resp {
                Ok(Response::Ok(lines)) if !lines.is_empty() => {}
                Ok(Response::Ok(_)) => t.fail(format!("{line:?} -> empty response")),
                Ok(Response::Err(e)) => t.fail(format!("{line:?} -> {e}")),
                Err(e) => t.fail(format!("{line:?} -> {e}")),
            }
        }
        (t, reads.join().expect("reader thread"))
    });
    w.window_s = secs(t0);
    w.read_ms = r.read_ms;
    w.attempted += r.attempted;
    w.failed += r.failed;
    w.failures.extend(r.failures);
    drop(reader);
    w
}

/// One warm writer, one traffic window, the writer's final snapshot.
struct Session {
    traffic: Traffic,
    metrics_before: HashMap<String, u64>,
    metrics_after: HashMap<String, u64>,
    peak_rss_mb: f64,
    heap_bytes: u64,
    stderr: String,
}

impl Session {
    /// Server-side `(busy ns, requests)` of the window over `cmds`, from
    /// the `jocl_request_ns` deltas on the writer plane.
    fn request_ns(&self, cmds: &[&str]) -> (f64, f64) {
        let delta = |key: String| {
            let get = |m: &HashMap<String, u64>| m.get(&key).copied().unwrap_or(0);
            (get(&self.metrics_after) - get(&self.metrics_before)) as f64
        };
        cmds.iter().fold((0.0, 0.0), |(sum, count), cmd| {
            let labels = format!("{{cmd=\"{cmd}\",plane=\"writer\"}}");
            (
                sum + delta(format!("jocl_request_ns_sum{labels}")),
                count + delta(format!("jocl_request_ns_count{labels}")),
            )
        })
    }

    /// Account the window's requests, and check that the server saw
    /// exactly the requests the client sent.
    fn check(&self, r: &mut Report) {
        let t = &self.traffic;
        r.attempted += t.attempted;
        r.failed += t.failed;
        for f in &t.failures {
            r.line(format!("failed request: {f}"));
        }
        let (writes, reads) = (self.request_ns(&WRITE_CMDS).1, self.request_ns(&READ_CMDS).1);
        r.check(writes as usize == t.write_ms.len() && reads as usize == t.read_ms.len(), || {
            format!(
                "server counted {writes} writes / {reads} reads, client sent {} / {}",
                t.write_ms.len(),
                t.read_ms.len()
            )
        });
    }
}

fn run_session(
    opts: &Opts,
    world: &World,
    dir: &Path,
    traced: bool,
    seconds: f64,
) -> (Session, f64) {
    let t0 = Instant::now();
    let (mut server, mut writer) = warm_server(opts, world.seed, dir, traced);
    let setup_s = secs(t0);
    let metrics_before = writer.metrics();
    let traffic = traffic(&mut server, &mut writer, world, opts, seconds);
    let peak = server.peak_rss_mb();
    let metrics_after = writer.metrics();
    let stats = parse_stats(&writer.ok("stats")[0]).expect("a well-formed stats line");
    writer.ok(&format!("snapshot {}", dir.join("final.snap").display()));
    let stderr = server.shutdown(writer);
    let s = Session {
        traffic,
        metrics_before,
        metrics_after,
        peak_rss_mb: peak,
        heap_bytes: stats.heap_bytes as u64,
        stderr,
    };
    (s, setup_s)
}

/// Replica warm-boot and catch-up, then the bitwise comparison with the
/// writer's final snapshot.
struct Replica {
    restore_s: f64,
    catchup_s: f64,
    entries: usize,
    decode: LiveDecode,
}

fn replica(r: &mut Report, world: &World, dir: &Path) -> Replica {
    let opts = EngineOptions {
        snapshot_path: dir.join("session.snap"),
        feed: FeedRole::Follower(dir.join("feed.log")),
    };
    let t0 = Instant::now();
    let mut engine = Engine::open_replica(
        config(),
        ServeConfig::default(),
        &world.dataset.ckb,
        &world.signals,
        world.pool.clone(),
        opts,
    )
    .expect("replica warm-boot from the pre-traffic snapshot");
    let restore_s = secs(t0);
    let t0 = Instant::now();
    let mut entries = 0;
    loop {
        match engine.poll_feed().expect("replica poll") {
            0 => break,
            n => entries += n,
        }
    }
    let catchup_s = secs(t0);

    let mut writer = jocl_serve::snapshot::load_session(
        &dir.join("final.snap"),
        config(),
        &world.dataset.ckb,
        &world.signals,
    )
    .expect("load the writer's final snapshot");
    let writer_bytes = jocl_serve::snapshot::session_to_bytes(&mut writer);
    let replica_bytes = jocl_serve::snapshot::session_to_bytes(engine.session_mut().session_mut());
    r.check(writer_bytes == replica_bytes, || {
        "replica state is not bitwise-equal to the writer's after catch-up".to_string()
    });
    let view = engine.session().live_view().expect("replica holds a decode");
    let decode = LiveDecode::of_view(engine.session().session(), &view);
    Replica { restore_s, catchup_s, entries, decode }
}

const RUN_ROOT: &str = ".bench_run";

fn run_dir(tag: &str) -> PathBuf {
    PathBuf::from(RUN_ROOT).join(format!("{}-{tag}", std::process::id()))
}

pub fn measure(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (mut setup_s, mut quality, mut catchup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write_ms, mut read_ms, mut window_s, mut peak, mut entries) =
        (Vec::new(), Vec::new(), 0.0, 0.0f64, 0);
    // One writer per world, one after the other, each with its share of
    // the window.
    for (i, seed) in world_seeds(opts.seed, WORLDS).into_iter().enumerate() {
        let (world, _) = World::new(opts, seed);
        let dir = run_dir(&format!("w{i}"));
        let (session, s) = run_session(opts, &world, &dir, false, opts.seconds / WORLDS as f64);
        setup_s.push(s);
        session.check(&mut r);
        let t = session.traffic;
        r.line(format!(
            "writer {i}: {} writes (p50 {:.3} ms), {} reads (p50 {:.4} ms) in {:.2} s",
            t.write_ms.len(),
            median(&t.write_ms),
            t.read_ms.len(),
            median(&t.read_ms),
            t.window_s
        ));
        let rep = replica(&mut r, &world, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        quality.push(TestSplit::new(&world.dataset, world.seed).score(&rep.decode));
        catchup_s.push(rep.restore_s + rep.catchup_s);
        entries += rep.entries;
        write_ms.extend(t.write_ms);
        read_ms.extend(t.read_ms);
        window_s += t.window_s;
        peak = peak.max(session.peak_rss_mb);
    }

    let (w50, w95) = (median(&write_ms), percentile(&write_ms, 0.95));
    let (r50, r95) = (median(&read_ms), percentile(&read_ms, 0.95));
    r.line(format!(
        "serve: {WORLDS} writers, {} writes and {} reads in {window_s:.2} s; replicas replayed {entries} \
         log entries",
        write_ms.len(),
        read_ms.len(),
    ));
    r.line(format!("write_p50_ms = {w50} ms, write_p95_ms = {w95} ms"));
    r.line(format!(
        "read_p50_ms = {r50} ms, read_p95_ms = {r95} ms, read_rps = {} 1/s",
        read_ms.len() as f64 / window_s
    ));
    r.line(format!("replica_catchup_s = {} s (median over writers)", median(&catchup_s)));

    // Succeeds only once no other run is using the directory.
    let _ = std::fs::remove_dir(RUN_ROOT);
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("peak_rss_mb", peak, "MB");
    r.metric("op_p50_ms", w50, "ms");
    r.metric("op_p95_ms", w95, "ms");
    r.metric("ops_per_s", write_ms.len() as f64 / window_s, "1/s");
    Quality::mean(&quality).report(&mut r);
    r
}

pub fn trace(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (world, signals_s) = World::new(opts, world_seeds(opts.seed, WORLDS)[0]);
    let half = opts.seconds / 2.0;

    // An untraced writer: request-level numbers, the replica.
    let dir = run_dir("plain");
    let (plain, _) = run_session(opts, &world, &dir, false, half);
    plain.check(&mut r);
    let rep = replica(&mut r, &world, &dir);
    let parity_diff = rep
        .decode
        .batch_differences(&world.dataset, &world.signals, config())
        .unwrap_or_else(|_| rep.decode.mentions());
    let snapshot_bytes = std::fs::metadata(dir.join("session.snap")).map(|m| m.len()).unwrap_or(0);
    let stats = replay_stats(&world, &dir);

    // A traced writer over the same plan: the span attribution.
    let tdir = run_dir("traced");
    let (traced, _) = run_session(opts, &world, &tdir, true, half);
    traced.check(&mut r);
    let spans = parse_tsv(&traced.stderr);
    let saves: Vec<u64> =
        spans.iter().filter(|s| s.name == "snapshot_save").map(|s| s.start_us).collect();
    r.check(saves.len() == 2, || format!("expected 2 snapshot_save spans, found {}", saves.len()));
    let window =
        between(&spans, saves.first().copied().unwrap_or(0), saves.last().copied().unwrap_or(0));
    let fold = Fold::of(&window);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&tdir);
    let _ = std::fs::remove_dir(RUN_ROOT);

    let (wsum, wcount) = plain.request_ns(&WRITE_CMDS);
    let (rsum, rcount) = plain.request_ns(&READ_CMDS);
    let t = &plain.traffic;
    let (client_write_mean, client_read_mean) = (mean(&t.write_ms), mean(&t.read_ms));
    let feed_key = "jocl_feed_offset_bytes{plane=\"writer\"}";
    let feed_bytes = plain.metrics_after.get(feed_key).copied().unwrap_or(0)
        - plain.metrics_before.get(feed_key).copied().unwrap_or(0);
    let traced_write_mean = mean(&traced.traffic.write_ms);

    r.lines.extend(fold.table("traced writer, traffic window"));
    r.line(format!(
        "apply_ops: {:.4} s, of which lbp_sweep {:.4} s ({:.1}%); unattributed {:.1}%",
        fold.total_s("apply_ops"),
        fold.total_s("lbp_sweep"),
        fold.coverage("apply_ops") * 100.0,
        (1.0 - fold.coverage("apply_ops")) * 100.0
    ));
    r.line(format!(
        "writes: client mean {client_write_mean:.3} ms, server mean {:.3} ms; reads: client mean \
         {client_read_mean:.4} ms, server mean {:.4} ms",
        wsum / wcount.max(1.0) / 1e6,
        rsum / rcount.max(1.0) / 1e6
    ));
    Layers {
        signals_s,
        lbp_s: fold.total_s("lbp_sweep"),
        lbp_message_updates: fold.count("lbp_sweep") as f64,
        incremental_s: fold.total_s("apply_ops"),
        incremental_self_s: fold.self_s("apply_ops"),
        incremental_updates_per_op: stats.0,
        incremental_affected_share: stats.1,
        incremental_heap_mb: plain.heap_bytes as f64 / (1024.0 * 1024.0),
        parity_diff: parity_diff as f64,
        write_busy_s: wsum / 1e9,
        read_busy_s: rsum / 1e9,
        write_overhead_ms: client_write_mean - wsum / wcount.max(1.0) / 1e6,
        read_overhead_ms: client_read_mean - rsum / rcount.max(1.0) / 1e6,
        feed_bytes: feed_bytes as f64,
        restore_s: rep.restore_s,
        snapshot_bytes: snapshot_bytes as f64,
        catchup_s: rep.catchup_s,
        read_p50_ms: median(&t.read_ms),
        read_p95_ms: percentile(&t.read_ms, 0.95),
        read_rps: t.read_ms.len() as f64 / t.window_s,
        replica_catchup_s: rep.restore_s + rep.catchup_s,
        attributed_share: fold.coverage("apply_ops"),
        overhead_ratio: traced_write_mean / client_write_mean,
        ..Layers::default()
    }
    .report(&mut r);
    r
}

/// Replay the writer's log over its pre-traffic snapshot in-process,
/// where each delta's stats are visible: (message updates per write,
/// mean share of components a write touched).
fn replay_stats(world: &World, dir: &Path) -> (f64, f64) {
    let mut session = ServeSession::restore_from(
        &dir.join("session.snap"),
        config(),
        ServeConfig::default(),
        &world.dataset.ckb,
        &world.signals,
    )
    .expect("restore the pre-traffic snapshot");
    let cursor = FeedCursor::load(&dir.join("session.cursor")).expect("snapshot cursor");
    let (entries, _) =
        jocl_core::feed::read_entries(&dir.join("feed.log"), cursor.feed_offset).expect("feed log");
    let (mut updates, mut shares) = (0u64, Vec::new());
    for entry in entries {
        if let jocl_core::FeedEntry::Ops(ops) = entry {
            let s = session.apply(&ops).stats;
            updates += s.lbp.message_updates;
            shares.push(s.affected_components as f64 / s.total_components.max(1) as f64);
        }
    }
    (updates as f64 / shares.len().max(1) as f64, mean(&shares))
}
