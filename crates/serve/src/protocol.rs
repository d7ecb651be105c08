//! The serving line protocol.
//!
//! One request per line, whitespace-delimited command word first; the
//! same grammar drives the interactive stdin loop and the socket
//! front-end, so a command file pipes unchanged into either. Responses
//! are framed for machine consumption:
//!
//! ```text
//! OK <n>\n            then exactly n payload lines
//! ERR <code> <msg>\n  one line, codes from [`ErrCode`]
//! ```
//!
//! Every malformed request — unknown command, bad arity, unparsable
//! triple, dead `#ID` reference — becomes an `ERR` line and leaves the
//! session untouched and the loop alive; the PR-5 loop's
//! `println!("error: …")`-and-continue convention is now a typed
//! contract a remote client can dispatch on. Payload `\n`s are escaped
//! on the wire so framing can never be broken by content.

use crate::api::{parse_link_target, LinkRequest};
use jocl_core::DeltaOutput;
use jocl_kb::{KbError, Triple};
use std::io::{BufRead, Write};
use std::path::PathBuf;

/// A triple argument: inline content or a `#ID` session reference
/// (resolved by the engine against the live store — resolution is a
/// state concern, parsing is not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TripleRef {
    /// `S | P | O` content.
    Content(Triple),
    /// `#ID` — a session triple id.
    Id(u32),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Feed the next `n` generated triples as adds.
    Ingest(usize),
    /// Add one triple.
    Add(Triple),
    /// Retract by content or `#ID`.
    Retract(TripleRef),
    /// Correct a triple: `revise OLD => S | P | O`.
    Revise {
        /// The triple being corrected.
        old: TripleRef,
        /// Its replacement content.
        new: Triple,
    },
    /// Cluster + link of live mentions with this phrase.
    Query(String),
    /// Entity-linking resolution: `link <phrase-or-uri> [limit=N]
    /// [threshold=X]` (see [`crate::api`] for the target grammar and
    /// the `link.v1` response frame). A read — served from the
    /// published view, never the writer.
    Link(LinkRequest),
    /// Session summary line (`stats.v1` — see [`crate::api`]).
    Stats,
    /// Observability exposition: the full registry as a `metrics.v1`
    /// frame (see [`crate::api`]). A read on either plane; deliberately
    /// records nothing about itself so two idle reads are
    /// byte-identical.
    Metrics,
    /// Persist the warm session (default path when `None`).
    Snapshot(Option<PathBuf>),
    /// Restart from a snapshot.
    Restore(Option<PathBuf>),
    /// Rebuild cold from the survivors now.
    Compact,
    /// Close this connection (stdin: end the loop).
    Quit,
    /// Stop the whole server (stdin: same as quit).
    Shutdown,
}

impl Command {
    /// Whether the command mutates session state (must run on the
    /// single writer; rejected on a read replica).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Command::Ingest(_)
                | Command::Add(_)
                | Command::Retract(_)
                | Command::Revise { .. }
                | Command::Restore(_)
                | Command::Compact
        )
    }

    /// Whether the command is a read, answered from a committed
    /// [`ReadView`](crate::view::ReadView) on any plane.
    pub fn is_read(&self) -> bool {
        matches!(self, Command::Query(_) | Command::Link(_) | Command::Stats | Command::Metrics)
    }
}

/// Machine-readable error class of an `ERR` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed request line (bad arity, unparsable argument).
    Parse,
    /// Unknown command word.
    Unknown,
    /// `#ID` reference to a missing or retracted triple.
    BadId,
    /// Write command on a read replica.
    ReadOnly,
    /// I/O failure (snapshot/feed files, sockets).
    Io,
    /// Snapshot codec failure (corruption, config mismatch).
    Snapshot,
    /// The request panicked; the request failed but the serve loop is
    /// alive. State may be degraded until the next successful delta.
    Panic,
}

impl ErrCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Parse => "parse",
            ErrCode::Unknown => "unknown",
            ErrCode::BadId => "badid",
            ErrCode::ReadOnly => "readonly",
            ErrCode::Io => "io",
            ErrCode::Snapshot => "snapshot",
            ErrCode::Panic => "panic",
        }
    }

    /// Parse a wire token (client side).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "parse" => ErrCode::Parse,
            "unknown" => ErrCode::Unknown,
            "badid" => ErrCode::BadId,
            "readonly" => ErrCode::ReadOnly,
            "io" => ErrCode::Io,
            "snapshot" => ErrCode::Snapshot,
            "panic" => ErrCode::Panic,
            _ => return None,
        })
    }
}

/// A typed protocol error: the `ERR <code> <msg>` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-dispatchable class.
    pub code: ErrCode,
    /// Human-readable detail.
    pub msg: String,
}

impl WireError {
    /// Build an error response.
    pub fn new(code: ErrCode, msg: impl Into<String>) -> Self {
        Self { code, msg: msg.into() }
    }

    /// Classify a [`KbError`] (snapshot codec failures vs plain I/O).
    pub fn from_kb(e: &KbError) -> Self {
        fn is_snapshot(e: &KbError) -> bool {
            match e {
                KbError::Snapshot { .. } => true,
                KbError::WithPath { source, .. } => is_snapshot(source),
                _ => false,
            }
        }
        let code = if is_snapshot(e) { ErrCode::Snapshot } else { ErrCode::Io };
        Self::new(code, e.to_string())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ERR {} {}", self.code.as_str(), escape_line(&self.msg))
    }
}

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `OK <n>` + n payload lines.
    Ok(Vec<String>),
    /// `ERR <code> <msg>`.
    Err(WireError),
}

impl Response {
    /// An `OK` with a single payload line.
    pub fn line(s: impl Into<String>) -> Self {
        Response::Ok(vec![s.into()])
    }

    /// Write the framed response (payload newlines escaped so content
    /// can never break framing).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        match self {
            Response::Ok(lines) => {
                writeln!(w, "OK {}", lines.len())?;
                for l in lines {
                    writeln!(w, "{}", escape_line(l))?;
                }
            }
            Response::Err(e) => writeln!(w, "{e}")?,
        }
        w.flush()
    }

    /// Read one framed response (client side). An unparsable frame or
    /// EOF mid-frame is an [`std::io::Error`].
    pub fn read_from(r: &mut impl BufRead) -> std::io::Result<Self> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut head = String::new();
        if r.read_line(&mut head)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let head = head.trim_end_matches(['\n', '\r']);
        if let Some(rest) = head.strip_prefix("OK ") {
            let n: usize =
                rest.trim().parse().map_err(|_| bad(format!("bad OK count in {head:?}")))?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                let mut l = String::new();
                if r.read_line(&mut l)? == 0 {
                    return Err(bad(format!("EOF inside an OK {n} frame")));
                }
                lines.push(l.trim_end_matches(['\n', '\r']).to_string());
            }
            Ok(Response::Ok(lines))
        } else if let Some(rest) = head.strip_prefix("ERR ") {
            let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
            let code =
                ErrCode::parse(code).ok_or_else(|| bad(format!("bad ERR code in {head:?}")))?;
            Ok(Response::Err(WireError::new(code, msg)))
        } else {
            Err(bad(format!("unrecognized response frame {head:?}")))
        }
    }
}

fn escape_line(s: &str) -> String {
    if s.contains('\n') || s.contains('\r') {
        s.replace('\r', "\\r").replace('\n', "\\n")
    } else {
        s.to_string()
    }
}

/// Parse one request line. `Ok(None)` for blank lines and `#` comments;
/// every malformed line is a typed [`WireError`], never a panic.
pub fn parse_command(line: &str) -> Result<Option<Command>, WireError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    let no_args = |name: &str| -> Result<(), WireError> {
        if rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::new(ErrCode::Parse, format!("{name} takes no arguments, got {rest:?}")))
        }
    };
    let opt_path = || if rest.is_empty() { None } else { Some(PathBuf::from(rest)) };
    Ok(Some(match cmd {
        "ingest" => Command::Ingest(rest.parse().map_err(|_| {
            WireError::new(ErrCode::Parse, format!("ingest needs a count, got {rest:?}"))
        })?),
        "add" => Command::Add(parse_triple(rest)?),
        "retract" => Command::Retract(parse_triple_ref(rest)?),
        "revise" => {
            let (old, new) = rest
                .split_once("=>")
                .ok_or_else(|| WireError::new(ErrCode::Parse, "revise needs 'OLD => NEW'"))?;
            Command::Revise { old: parse_triple_ref(old)?, new: parse_triple(new.trim())? }
        }
        "query" => {
            if rest.is_empty() {
                return Err(WireError::new(ErrCode::Parse, "query needs a phrase"));
            }
            Command::Query(rest.to_string())
        }
        "link" => Command::Link(parse_link_request(rest)?),
        "stats" => {
            no_args("stats")?;
            Command::Stats
        }
        "metrics" => {
            no_args("metrics")?;
            Command::Metrics
        }
        "snapshot" => Command::Snapshot(opt_path()),
        "restore" => Command::Restore(opt_path()),
        "compact" => {
            no_args("compact")?;
            Command::Compact
        }
        "quit" | "exit" => {
            no_args(cmd)?;
            Command::Quit
        }
        // `shutdown please` must not stop a shared server — argument
        // strictness matters most on the most destructive command.
        "shutdown" => {
            no_args("shutdown")?;
            Command::Shutdown
        }
        _ => return Err(WireError::new(ErrCode::Unknown, format!("unknown command {cmd:?}"))),
    }))
}

/// Parse `S | P | O` content.
pub fn parse_triple(s: &str) -> Result<Triple, WireError> {
    let parts: Vec<&str> = s.split('|').map(str::trim).collect();
    match parts.as_slice() {
        [s, p, o] if !s.is_empty() && !p.is_empty() && !o.is_empty() => Ok(Triple::new(s, p, o)),
        _ => Err(WireError::new(
            ErrCode::Parse,
            format!("expected 'subject | predicate | object', got {s:?}"),
        )),
    }
}

/// Parse the `link` argument: a target (phrase or URI), optionally
/// followed by trailing `limit=N` / `threshold=X` options. Options are
/// popped off the end so the target itself may contain spaces.
fn parse_link_request(rest: &str) -> Result<LinkRequest, WireError> {
    let mut rest = rest.trim();
    let mut limit = None;
    let mut threshold = None;
    loop {
        // A lone option token is still an option — `link limit=3` is a
        // missing target, not a phrase spelled "limit=3".
        let (head, tail) = rest.rsplit_once(char::is_whitespace).unwrap_or(("", rest));
        if let Some(v) = tail.strip_prefix("limit=") {
            let n: usize = v.parse().map_err(|_| {
                WireError::new(ErrCode::Parse, format!("link limit needs a count, got {tail:?}"))
            })?;
            if n == 0 {
                return Err(WireError::new(ErrCode::Parse, "link limit must be at least 1"));
            }
            limit = Some(n);
            rest = head.trim_end();
        } else if let Some(v) = tail.strip_prefix("threshold=") {
            let t: f64 = v.parse().map_err(|_| {
                WireError::new(
                    ErrCode::Parse,
                    format!("link threshold needs a number, got {tail:?}"),
                )
            })?;
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(WireError::new(
                    ErrCode::Parse,
                    format!("link threshold must be in [0, 1], got {v}"),
                ));
            }
            threshold = Some(t);
            rest = head.trim_end();
        } else {
            break;
        }
    }
    Ok(LinkRequest { target: parse_link_target(rest)?, limit, threshold })
}

/// Parse `S | P | O` or `#ID` (the id is resolved later, by the engine).
pub fn parse_triple_ref(s: &str) -> Result<TripleRef, WireError> {
    let s = s.trim();
    if let Some(id) = s.strip_prefix('#') {
        let id: u32 = id
            .trim()
            .parse()
            .map_err(|_| WireError::new(ErrCode::Parse, format!("bad triple id {s:?}")))?;
        return Ok(TripleRef::Id(id));
    }
    Ok(TripleRef::Content(parse_triple(s)?))
}

/// The per-delta stats line (identical to the PR-5 interactive output,
/// so existing smoke expectations and eyeballs both still work).
pub fn format_delta(out: &DeltaOutput, ms: f64) -> String {
    let s = &out.stats;
    format!(
        "  +{} -{} ~{} dup {} miss {} | vars+{} factors+{} tomb {} | live {} density {:.3} | \
         {} msg {} | {:.1} ms{}",
        s.appended,
        s.retracted,
        s.revised,
        s.duplicates,
        s.missed_retracts,
        s.new_vars,
        s.new_factors,
        s.tombstoned_factors,
        s.live_triples,
        s.tombstone_density,
        if s.warm_started { "warm" } else { "cold" },
        s.lbp.message_updates,
        ms,
        if s.compacted { " [COMPACTED]" } else { "" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command_form() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   # comment").unwrap(), None);
        assert_eq!(parse_command("ingest 40").unwrap(), Some(Command::Ingest(40)));
        assert_eq!(
            parse_command("add A | rel | B").unwrap(),
            Some(Command::Add(Triple::new("A", "rel", "B")))
        );
        assert_eq!(parse_command("retract #7").unwrap(), Some(Command::Retract(TripleRef::Id(7))));
        assert_eq!(
            parse_command("retract A | rel | B").unwrap(),
            Some(Command::Retract(TripleRef::Content(Triple::new("A", "rel", "B"))))
        );
        assert_eq!(
            parse_command("revise #3 => A | rel | B").unwrap(),
            Some(Command::Revise { old: TripleRef::Id(3), new: Triple::new("A", "rel", "B") })
        );
        assert_eq!(parse_command("query Foo Inc").unwrap(), Some(Command::Query("Foo Inc".into())));
        assert_eq!(
            parse_command("link Foo Inc").unwrap(),
            Some(Command::Link(LinkRequest {
                target: crate::api::LinkTarget::Surface("Foo Inc".into()),
                limit: None,
                threshold: None,
            }))
        );
        assert_eq!(
            parse_command("link the terps limit=3 threshold=0.25").unwrap(),
            Some(Command::Link(LinkRequest {
                target: crate::api::LinkTarget::Surface("the terps".into()),
                limit: Some(3),
                threshold: Some(0.25),
            }))
        );
        assert_eq!(
            parse_command("link ckb://entity/7/umd limit=1").unwrap(),
            Some(Command::Link(LinkRequest {
                target: crate::api::LinkTarget::Entity(7),
                limit: Some(1),
                threshold: None,
            }))
        );
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(parse_command("snapshot").unwrap(), Some(Command::Snapshot(None)));
        assert_eq!(
            parse_command("snapshot /tmp/x.snap").unwrap(),
            Some(Command::Snapshot(Some(PathBuf::from("/tmp/x.snap"))))
        );
        assert_eq!(parse_command("restore").unwrap(), Some(Command::Restore(None)));
        assert_eq!(parse_command("compact").unwrap(), Some(Command::Compact));
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("exit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
    }

    /// Satellite contract: each command's malformed variants are typed
    /// parse errors, never panics.
    #[test]
    fn malformed_variants_are_typed_errors() {
        let parse_err = |line: &str| {
            let e = parse_command(line).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{line:?} -> {e:?}");
            e
        };
        parse_err("ingest");
        parse_err("ingest many");
        parse_err("ingest -3");
        parse_err("add");
        parse_err("add just-one-field");
        parse_err("add a | b");
        parse_err("add  | b | c");
        parse_err("add a | b | c | d");
        parse_err("retract #notanum");
        parse_err("retract #");
        parse_err("retract a | b");
        parse_err("revise a | b | c");
        parse_err("revise #1 => ");
        parse_err("revise => a | b | c");
        parse_err("query");
        parse_err("link");
        parse_err("link limit=3");
        parse_err("link x limit=0");
        parse_err("link x limit=lots");
        parse_err("link x threshold=maybe");
        parse_err("link x threshold=1.5");
        parse_err("link x threshold=-0.1");
        parse_err("link x threshold=nan");
        parse_err("link jocl://banana/3");
        parse_err("link jocl://np/notanum");
        parse_err("stats now");
        parse_err("metrics now");
        parse_err("compact hard");
        parse_err("quit now");
        parse_err("shutdown please");
        assert_eq!(parse_command("frobnicate").unwrap_err().code, ErrCode::Unknown);
    }

    #[test]
    fn responses_roundtrip_the_wire() {
        let mut buf = Vec::new();
        Response::Ok(vec!["one".into(), "two\nlines".into()]).write_to(&mut buf).unwrap();
        Response::Err(WireError::new(ErrCode::BadId, "triple #9 is already retracted"))
            .write_to(&mut buf)
            .unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(
            Response::read_from(&mut r).unwrap(),
            Response::Ok(vec!["one".into(), "two\\nlines".into()])
        );
        assert_eq!(
            Response::read_from(&mut r).unwrap(),
            Response::Err(WireError::new(ErrCode::BadId, "triple #9 is already retracted"))
        );
        assert!(Response::read_from(&mut r).is_err(), "EOF is an error, not a frame");
    }
}
