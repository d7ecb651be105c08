//! **serve** — the serving plane over a generated OKB: the
//! `jocl_serve` engine driven from stdin, or — with `JOCL_LISTEN` —
//! behind the TCP / unix-socket line-protocol front-end, with
//! `--replica` warm-restoring a read replica that follows the writer's
//! replication log.
//!
//! ```text
//! # interactive (PR-5 behavior)
//! JOCL_SCALE=0.002 JOCL_SNAPSHOT_DIR=/tmp/jocl \
//!     cargo run --release -p jocl_bench --bin serve
//!
//! # networked writer
//! JOCL_LISTEN=unix:/tmp/jocl/serve.sock JOCL_SNAPSHOT_DIR=/tmp/jocl \
//!     cargo run --release -p jocl_bench --bin serve
//!
//! # read replica (same snapshot dir; follows /tmp/jocl/feed.log)
//! JOCL_LISTEN=tcp:127.0.0.1:7071 JOCL_SNAPSHOT_DIR=/tmp/jocl \
//!     cargo run --release -p jocl_bench --bin serve -- --replica
//! ```
//!
//! Commands (one per line; blank lines and `#` comments are ignored;
//! over a socket, responses are framed `OK <n>` / `ERR <code> <msg>`):
//!
//! ```text
//! ingest N                     feed the next N generated triples as adds
//! add S | P | O                add one triple
//! retract S | P | O            retract by content (also: retract #ID)
//! revise S | P | O => S | P | O   correct a triple (also: revise #ID => …)
//! query PHRASE                 cluster + link of live mentions with PHRASE
//! link TARGET [limit=N] [threshold=X]
//!                              resolve a phrase or jocl://|ckb:// URI to ranked
//!                              link candidates (link.v1 frame; side-information
//!                              dictionary candidates included when imported)
//! stats                        session summary (stats.v1 line)
//! metrics                      metrics.v1 exposition of the whole registry
//! snapshot [PATH]              persist the warm session (default: JOCL_SNAPSHOT_DIR)
//! restore [PATH]               restart from a snapshot
//! compact                      rebuild cold from the survivors
//! quit                         close this connection (stdin: exit)
//! shutdown                     stop the whole server
//! ```
//!
//! The only argument is `--replica`; anything else exits 2 with a usage
//! line before any data is generated (a typo must not boot a writer
//! over a replica's feed directory).
//!
//! Knobs: `JOCL_SCALE`, `JOCL_SEED`, `JOCL_COMPACT_THRESHOLD`
//! (auto-compaction density, `off` disables),
//! `JOCL_SNAPSHOT_DIR` (snapshot + replication-log directory),
//! `JOCL_LISTEN` (`tcp:HOST:PORT` / `unix:PATH`, `off` keeps stdin),
//! `JOCL_MSG_STORE` (`exact` / `quantized` committed-message arena),
//! `JOCL_LINK_THRESHOLD` (min `link` candidate confidence, `off`
//! reports all), `JOCL_METRICS` (`off` disables metric recording),
//! `JOCL_TRACE` (`on` records spans, dumped as TSV to stderr on exit),
//! `JOCL_SIDE_INFO` (side-information TSV to import —
//! threaded into inference as S1/S2 potentials *and* into `link`
//! dictionary candidates; the snapshot fingerprint pins it). Inference
//! runs the residual schedule, the only serving schedule. Each LBP run
//! is serial on the thread that owns the session, as in every other
//! bin.

use jocl_bench::{
    env_compact_threshold, env_link_threshold, env_listen, env_message_store, env_metrics,
    env_scale, env_seed, env_side_info, env_snapshot_dir, env_trace,
};
use jocl_core::signals::build_signals;
use jocl_core::JoclConfig;
use jocl_datagen::reverb45k_like;
use jocl_embed::SgnsOptions;
use jocl_kb::Triple;
use jocl_serve::{
    parse_command, Command, Engine, EngineOptions, FeedRole, ListenAddr, Response, ServeConfig,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn snapshot_dir() -> PathBuf {
    env_snapshot_dir()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("jocl-serve-{}", std::process::id())))
}

fn epilogue(engine: &Engine<'_>) {
    println!(
        "SERVE ok: {} ops, {} compactions, {} live / {} triples, {} total msg updates, {} heap KiB",
        engine.session().ops_applied,
        engine.session().compactions,
        engine.session().session().num_live(),
        engine.session().session().len(),
        engine.session().session().total_message_updates,
        engine.session().session().heap_bytes() / 1024,
    );
    dump_trace();
}

/// The PR-5 interactive loop, now a thin shell around the same engine
/// the socket front-end drives: parse, execute, print the response
/// payload (errors as their `ERR <code> <msg>` line).
fn stdin_loop(mut engine: Engine<'_>) {
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        };
        let cmd = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(Command::Quit | Command::Shutdown)) => break,
            Ok(Some(cmd)) => cmd,
            Err(e) => {
                println!("{e}");
                continue;
            }
        };
        match engine.execute_caught(&cmd) {
            Response::Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
            }
            Response::Err(e) => println!("{e}"),
        }
    }
    epilogue(&engine);
}

/// The socket front-end: serve until a client sends `shutdown`.
fn listen_loop(engine: Engine<'_>, addr: &ListenAddr) {
    let stop = AtomicBool::new(false);
    let result = jocl_serve::net::serve(engine, addr, &stop, &mut |resolved| {
        println!("listening on {resolved}");
    });
    match result {
        Ok((engine, stats)) => {
            println!(
                "NET ok: {} connections, {} requests, {} errors",
                stats.connections, stats.requests, stats.errors
            );
            epilogue(&engine);
        }
        Err(e) => {
            eprintln!("listener failed on {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// Dump the span-trace ring as TSV to stderr (stdout carries the
/// protocol / epilogue lines the smoke tests parse).
fn dump_trace() {
    if jocl_obs::trace_enabled() {
        eprint!("{}", jocl_obs::take_trace_tsv());
    }
}

const USAGE: &str = "usage: serve [--replica]";

/// Whether `--replica` was passed; any other argument exits 2 with the
/// usage line.
fn parse_args() -> bool {
    let mut replica = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--replica" => replica = true,
            _ => {
                eprintln!("serve: unknown argument {arg:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    replica
}

fn main() {
    let replica = parse_args();
    jocl_obs::set_metrics_enabled(env_metrics());
    jocl_obs::set_trace_enabled(env_trace());
    let scale = env_scale();
    let seed = env_seed();
    let threshold = env_compact_threshold();
    let listen = env_listen();

    let dataset = reverb45k_like(seed, scale);
    let pool: Vec<Triple> = dataset.okb.triples().map(|(_, t)| t.clone()).collect();
    let signals = build_signals(
        &dataset.okb,
        &dataset.ckb,
        &dataset.ppdb,
        &dataset.corpus,
        &SgnsOptions { dim: 24, epochs: 2, seed, ..Default::default() },
    );
    let mut config =
        JoclConfig { train_epochs: 0, message_store: env_message_store(), ..Default::default() };
    if let Some(path) = env_side_info() {
        match jocl_kb::tsv::read_side_kb(&path) {
            Ok(side) => {
                println!(
                    "side info: {} entity + {} relation rows from {} (fingerprint {:#018x})",
                    side.num_entity_links(),
                    side.num_relation_links(),
                    path.display(),
                    side.fingerprint(),
                );
                config.side_info = Some(std::sync::Arc::new(side));
            }
            Err(e) => {
                eprintln!("cannot import side info from {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    let serve_config = ServeConfig::builder()
        .compact_threshold(threshold)
        .link_threshold(env_link_threshold())
        .build();

    let dir = snapshot_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create snapshot dir {}: {e}", dir.display());
        std::process::exit(2);
    }
    let snapshot_path = dir.join("session.snap");
    let feed_path = dir.join("feed.log");

    println!(
        "Serving session over a {}-triple feed (scale {scale}, seed {seed}, {:?}, \
         compact threshold {threshold}, {}); commands: ingest/add/retract/revise/query/link/\
         stats/snapshot/restore/compact/quit/shutdown",
        pool.len(),
        config.lbp.mode,
        if replica { "replica" } else { "writer" },
    );

    if replica {
        let opts = EngineOptions { snapshot_path, feed: FeedRole::Follower(feed_path) };
        let engine =
            match Engine::open_replica(config, serve_config, &dataset.ckb, &signals, pool, opts) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("replica warm-boot failed: {e}");
                    std::process::exit(2);
                }
            };
        println!(
            "replica warm-boot: {} triples ({} live), feed offset {}",
            engine.session().session().len(),
            engine.session().session().num_live(),
            engine.feed_offset(),
        );
        let Some(addr) = listen else {
            eprintln!("--replica serves over the wire; set JOCL_LISTEN=tcp:HOST:PORT or unix:PATH");
            std::process::exit(2);
        };
        listen_loop(engine, &addr);
    } else {
        let opts = EngineOptions { snapshot_path, feed: FeedRole::Writer(feed_path) };
        let engine = Engine::open(config, serve_config, &dataset.ckb, &signals, pool, opts);
        match listen {
            Some(addr) => listen_loop(engine, &addr),
            None => stdin_loop(engine),
        }
    }
}
