//! The socket front-end: the serve loop behind a line-protocol
//! listener (TCP or unix-domain, per [`ListenAddr`]).
//!
//! Threading model — **single writer, concurrent readers**:
//!
//! * one **writer thread** owns the [`Engine`] outright; every
//!   state-changing command is shipped to it over a channel and
//!   answered with a per-request reply channel, so writes serialize by
//!   construction (no lock on the factor graph at all);
//! * each accepted connection gets a **handler thread** that parses
//!   lines and answers `query`/`link`/`stats`/`metrics` from the
//!   published [`SharedView`] through
//!   [`ReadView::answer`](crate::view::ReadView::answer), the engine's
//!   own read path — readers never wait for an in-flight delta, they
//!   see the last committed decode;
//! * after each command (and each replica catch-up batch) the writer
//!   publishes the engine's freshly captured
//!   [`ReadView`](crate::view::ReadView) — the same `Arc`, never a
//!   second capture.
//!
//! On a follower engine the writer thread doubles as the replication
//! poller: idle channel ticks run [`Engine::poll_feed`] and republish
//! the view when the replica advanced.
//!
//! Lifecycle: `shutdown` (or an external flip of the `stop` flag) stops
//! the accept loop, handler threads drain on their read timeouts, the
//! writer exits when the last request sender drops, and [`serve`]
//! returns the engine so the caller can print totals / export state —
//! the serve loop *returns*, it does not `exit()`.

use crate::engine::Engine;
use crate::obs;
use crate::protocol::{parse_command, Command, Response, WireError};
use crate::view::SharedView;
use jocl_obs::Stopwatch;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// How long an idle connection or writer waits before re-checking the
/// stop flag (and, on followers, polling the replication log).
const TICK: Duration = Duration::from_millis(25);

/// A listener address: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP bind address (`HOST:PORT`; port 0 picks a free port, the
    /// resolved address is reported via [`serve`]'s `ready` callback).
    Tcp(String),
    /// A unix-domain socket path (a stale socket file is replaced).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parse a listen spec. Accepted forms: `tcp:HOST:PORT`,
    /// `unix:PATH`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("tcp listen spec needs HOST:PORT, got {addr:?}"));
            }
            Ok(ListenAddr::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix listen spec needs a socket path".to_string());
            }
            Ok(ListenAddr::Unix(PathBuf::from(path)))
        } else {
            Err(format!("listen spec must be 'tcp:HOST:PORT' or 'unix:PATH', got {spec:?}"))
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(a) => write!(f, "tcp:{a}"),
            ListenAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Front-end counters, returned by [`serve`] for the epilogue line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines answered (OK or ERR).
    pub requests: u64,
    /// ERR responses sent.
    pub errors: u64,
}

enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyListener {
    fn bind(addr: &ListenAddr) -> std::io::Result<(Self, ListenAddr)> {
        match addr {
            ListenAddr::Tcp(spec) => {
                let l = TcpListener::bind(spec)?;
                let resolved = ListenAddr::Tcp(l.local_addr()?.to_string());
                Ok((AnyListener::Tcp(l), resolved))
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                // A previous process's socket file blocks the bind;
                // binding is the claim of ownership here.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((AnyListener::Unix(l), ListenAddr::Unix(path.clone())))
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            )),
        }
    }

    fn set_nonblocking(&self, v: bool) -> std::io::Result<()> {
        match self {
            AnyListener::Tcp(l) => l.set_nonblocking(v),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.set_nonblocking(v),
        }
    }

    fn accept(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }
}

impl AnyStream {
    fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }

    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

struct WriteReq {
    cmd: Command,
    reply: mpsc::Sender<Response>,
}

struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// Run the serve loop behind a listener until `stop` is set (a client
/// `shutdown`, or the caller flipping it). Returns the engine — with
/// all state — and the front-end counters. `ready` fires once with the
/// resolved bind address (the way to learn the port after `tcp:…:0`).
pub fn serve<'a>(
    engine: Engine<'a>,
    addr: &ListenAddr,
    stop: &AtomicBool,
    ready: &mut dyn FnMut(&ListenAddr),
) -> std::io::Result<(Engine<'a>, NetStats)> {
    let (listener, resolved) = AnyListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    ready(&resolved);

    let view = SharedView::new(engine.read_view());
    let counters = Counters {
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    };
    let (tx, rx) = mpsc::channel::<WriteReq>();

    let engine = std::thread::scope(|s| {
        let writer = s.spawn(|| writer_loop(engine, rx, &view, stop));
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => {
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let tx = tx.clone();
                    let view = &view;
                    let counters = &counters;
                    s.spawn(move || handle_connection(stream, tx, view, stop, counters));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // Dropping the accept loop's sender lets the writer exit once
        // every handler thread (each holding a clone) has drained.
        drop(tx);
        writer.join().expect("writer thread panicked")
    });

    if let ListenAddr::Unix(path) = &resolved {
        let _ = std::fs::remove_file(path);
    }
    let stats = NetStats {
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        errors: counters.errors.load(Ordering::Relaxed),
    };
    Ok((engine, stats))
}

fn writer_loop<'e>(
    mut engine: Engine<'e>,
    rx: mpsc::Receiver<WriteReq>,
    view: &SharedView<'e>,
    stop: &AtomicBool,
) -> Engine<'e> {
    loop {
        match rx.recv_timeout(TICK) {
            Ok(req) => {
                let resp = match &req.cmd {
                    Command::Shutdown => {
                        stop.store(true, Ordering::Relaxed);
                        engine.execute_caught(&req.cmd)
                    }
                    cmd => {
                        let resp = engine.execute_caught(cmd);
                        // Republish unconditionally: even an errored or
                        // panicked request may have advanced state (a
                        // feed-append failure after a successful apply),
                        // and the engine has recaptured its view for it.
                        view.store(engine.read_view());
                        resp
                    }
                };
                let _ = req.reply.send(resp);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if engine.is_replica() {
                    match engine.poll_feed() {
                        Ok(0) => {}
                        Ok(_) => view.store(engine.read_view()),
                        Err(e) => eprintln!("replica: feed poll failed: {e}"),
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // Final catch-up so a drained replica returns fully caught up.
    if engine.is_replica() {
        let _ = engine.poll_feed();
    }
    engine
}

fn handle_connection(
    stream: AnyStream,
    tx: mpsc::Sender<WriteReq>,
    view: &SharedView<'_>,
    stop: &AtomicBool,
    counters: &Counters,
) {
    obs::net().connections_total.inc();
    obs::net().active_connections.add(1);
    // Decrement on every exit path, including the early returns below.
    struct ConnGuard;
    impl Drop for ConnGuard {
        fn drop(&mut self) {
            obs::net().active_connections.sub(1);
        }
    }
    let _guard = ConnGuard;
    if stream.set_read_timeout(TICK).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::Relaxed) {
        // `read_line` appends, so a timeout mid-line keeps the partial
        // prefix in `line`; it is only cleared after a complete line.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let (resp, close) = answer(&line, &tx, view);
                line.clear();
                let Some(resp) = resp else { continue };
                counters.requests.fetch_add(1, Ordering::Relaxed);
                if matches!(resp, Response::Err(_)) {
                    counters.errors.fetch_add(1, Ordering::Relaxed);
                }
                if resp.write_to(&mut writer).is_err() || close {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// Answer one request line: reads from the published view, writes via
/// the writer channel. `(None, _)` for blank/comment lines; the bool
/// asks the connection loop to close after replying.
fn answer(
    line: &str,
    tx: &mpsc::Sender<WriteReq>,
    view: &SharedView<'_>,
) -> (Option<Response>, bool) {
    let cmd = match parse_command(line) {
        Ok(None) => return (None, false),
        Ok(Some(cmd)) => cmd,
        Err(e) => {
            let m = obs::plane(view.load().stats.replica);
            m.requests_total.inc();
            m.record_err(e.code);
            return (Some(Response::Err(e)), false);
        }
    };
    match cmd {
        Command::Quit => (Some(Response::line("bye")), true),
        // View-served reads record on the plane the view was published
        // by (`metrics` records nothing, so two reads of an idle server
        // return byte-identical frames); writes are recorded by the
        // engine on the writer thread.
        cmd if cmd.is_read() => {
            let v = view.load();
            let m = obs::plane(v.stats.replica);
            m.record_request(&cmd);
            let sw = Stopwatch::start();
            let resp = v.answer(&cmd).expect("the view answers every read command");
            m.record_response(&cmd, &resp, &sw);
            (Some(resp), false)
        }
        // Everything else — writes, snapshot/restore, shutdown — runs
        // on the single writer thread, in arrival order.
        cmd => {
            let (rtx, rrx) = mpsc::channel();
            let closing = || {
                Response::Err(WireError::new(
                    crate::protocol::ErrCode::Io,
                    "server is shutting down",
                ))
            };
            if tx.send(WriteReq { cmd, reply: rtx }).is_err() {
                return (Some(closing()), true);
            }
            (Some(rrx.recv().unwrap_or_else(|_| closing())), false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_specs_parse_and_display() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            ListenAddr::parse(" unix:/tmp/jocl.sock ").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/jocl.sock"))
        );
        assert_eq!(ListenAddr::parse("tcp:127.0.0.1:0").unwrap().to_string(), "tcp:127.0.0.1:0");
        for bad in ["", "tcp:", "tcp:nohostport", "unix:", "9090", "udp:1:2"] {
            assert!(ListenAddr::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
