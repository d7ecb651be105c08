//! The transport-agnostic serve engine: one [`Engine::execute`] call
//! per parsed [`Command`], shared verbatim by the interactive stdin
//! loop, the socket front-end's writer thread and the in-process tests
//! — so "the serve loop" has exactly one behavior regardless of how the
//! line arrived.
//!
//! Reads (`query`, `link`, `stats`, `metrics`) are answered from the
//! engine's committed [`ReadView`] ([`ReadView::answer`], the same call
//! the socket handlers make on the published view). The engine
//! recaptures that view after every other command — a panicking one
//! included, since it may have died mid-apply — and after each replica
//! catch-up, so a read always sees the state the last command left.
//!
//! The engine also owns the **replication feed** plumbing
//! ([`FeedRole`]):
//!
//! * a **writer** appends every committed write batch to an append-only
//!   log ([`jocl_core::feed`]) *after* the apply succeeds, preserving
//!   batch boundaries (warm-start work depends on batching, and replica
//!   parity is bitwise, so the replica must replay the writer's exact
//!   batches);
//! * a **follower** (read replica) never accepts writes over the wire
//!   (`ERR readonly`), and instead [`Engine::poll_feed`]s the writer's
//!   log, applying each entry as the writer did. A follower typically
//!   warm-boots from the writer's snapshot + [`FeedCursor`] sidecar
//!   ([`Engine::open_replica`]) and only replays the log tail — the
//!   warm-catch-up path the `serve_net` gate prices against a cold
//!   rebuild.
//!
//! Failure policy: every per-request failure is a typed
//! [`WireError`] response; [`Engine::execute_caught`] additionally
//! converts a panicking request (e.g. a poisoned inference worker) into
//! `ERR panic …` so one bad request can never take down the loop or the
//! listener.

use crate::obs;
use crate::protocol::{format_delta, Command, ErrCode, Response, TripleRef, WireError};
use crate::view::ReadView;
use crate::{ServeConfig, ServeSession};
use jocl_core::feed::{append_entry, read_entries, truncate_to, FeedEntry};
use jocl_core::{DeltaOp, DeltaOutput, JoclConfig, Signals};
use jocl_kb::{Ckb, FeedCursor, KbError, Triple, TripleId};
use jocl_obs::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The engine's relationship to the replication feed log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedRole {
    /// No replication (PR-5 behavior: a lone interactive session).
    None,
    /// Single writer: append committed write batches to this log.
    Writer(PathBuf),
    /// Read replica: reject wire writes, follow this log.
    Follower(PathBuf),
}

impl FeedRole {
    /// The log path, if any.
    pub fn path(&self) -> Option<&Path> {
        match self {
            FeedRole::None => None,
            FeedRole::Writer(p) | FeedRole::Follower(p) => Some(p),
        }
    }
}

/// Engine deployment options (the model/serving policy stays in
/// [`JoclConfig`] / [`ServeConfig`]).
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Default `snapshot`/`restore` path.
    pub snapshot_path: PathBuf,
    /// Replication role.
    pub feed: FeedRole,
}

/// The transport-agnostic serve loop body.
pub struct Engine<'a> {
    session: ServeSession<'a>,
    config: JoclConfig,
    serve: ServeConfig,
    ckb: &'a Ckb,
    signals: &'a Signals,
    /// The generated source pool behind `ingest`.
    pool: Vec<Triple>,
    pool_cursor: usize,
    feed_offset: u64,
    opts: EngineOptions,
    version: u64,
    /// The committed read view every read is answered from.
    view: Arc<ReadView<'a>>,
}

impl<'a> Engine<'a> {
    /// Open an engine over a fresh session.
    pub fn open(
        config: JoclConfig,
        serve: ServeConfig,
        ckb: &'a Ckb,
        signals: &'a Signals,
        pool: Vec<Triple>,
        opts: EngineOptions,
    ) -> Self {
        // Pin the uptime epoch before the first request can ask for it.
        obs::process_start();
        let session = ServeSession::open(config.clone(), serve.clone(), ckb, signals);
        let replica = matches!(opts.feed, FeedRole::Follower(_));
        let view = Arc::new(ReadView::capture(&session, 0, replica));
        Self {
            session,
            config,
            serve,
            ckb,
            signals,
            pool,
            pool_cursor: 0,
            feed_offset: 0,
            opts,
            version: 0,
            view,
        }
    }

    /// Open a read replica: warm-restore from the writer's snapshot +
    /// cursor sidecar when present (the normal path — catch-up then
    /// only replays the log tail past the snapshot), or start cold at
    /// offset 0 and replay the whole log. `opts.feed` must be
    /// [`FeedRole::Follower`].
    pub fn open_replica(
        config: JoclConfig,
        serve: ServeConfig,
        ckb: &'a Ckb,
        signals: &'a Signals,
        pool: Vec<Triple>,
        opts: EngineOptions,
    ) -> Result<Self, KbError> {
        assert!(
            matches!(opts.feed, FeedRole::Follower(_)),
            "open_replica requires FeedRole::Follower"
        );
        let mut engine = Self::open(config, serve, ckb, signals, pool, opts);
        let path = engine.opts.snapshot_path.clone();
        if path.exists() {
            engine.restore_session(&path, Stopwatch::start())?;
            engine.refresh_view();
        }
        Ok(engine)
    }

    /// Whether this plane rejects wire writes.
    pub fn is_replica(&self) -> bool {
        matches!(self.opts.feed, FeedRole::Follower(_))
    }

    /// The wrapped session (stats, parity checks).
    pub fn session(&self) -> &ServeSession<'a> {
        &self.session
    }

    /// Mutable session access (state export needs `&mut`). Reads keep
    /// answering from the view the last command captured, so a change
    /// made through this handle is not served until the next command.
    pub fn session_mut(&mut self) -> &mut ServeSession<'a> {
        &mut self.session
    }

    /// Next unconsumed generated-pool index.
    pub fn pool_cursor(&self) -> usize {
        self.pool_cursor
    }

    /// Replication-log byte offset this engine has incorporated.
    pub fn feed_offset(&self) -> u64 {
        self.feed_offset
    }

    /// Committed-write version (bumped once per state-changing command).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The committed read view every read is answered from — the
    /// state as of the last command or replica catch-up.
    pub fn read_view(&self) -> Arc<ReadView<'a>> {
        Arc::clone(&self.view)
    }

    /// Recapture the read view from the session.
    fn refresh_view(&mut self) {
        let _span = jocl_obs::span!("view_capture");
        self.view = Arc::new(ReadView::capture(&self.session, self.version, self.is_replica()));
    }

    /// Execute one command, converting a panic into `ERR panic …` so a
    /// poisoned request kills neither a stdin loop nor a listener. The
    /// session may be degraded after a panic (a delta died mid-apply);
    /// the response says so, and the loop lives to report it.
    pub fn execute_caught(&mut self, cmd: &Command) -> Response {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(cmd))) {
            Ok(resp) => resp,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                // The panic unwound past `execute`'s bookkeeping, so the
                // error is counted here (the request itself was already
                // counted on entry) and the view recaptured: the request
                // may have died mid-apply.
                obs::plane(self.is_replica()).record_err(ErrCode::Panic);
                self.refresh_view();
                Response::Err(WireError::new(
                    ErrCode::Panic,
                    format!("request panicked ({msg}); session may be degraded"),
                ))
            }
        }
    }

    /// Execute one command against the session. Every failure is a
    /// typed [`Response::Err`] that leaves the session consistent (the
    /// checks run before any mutation). Reads are answered from the
    /// committed view; every other command recaptures it afterwards.
    ///
    /// Every request except `metrics` records into this plane's
    /// request counter, per-command latency histogram and (for `ERR`s)
    /// per-code counter; `metrics` records nothing so that two reads of
    /// an idle server return byte-identical frames.
    pub fn execute(&mut self, cmd: &Command) -> Response {
        let m = obs::plane(self.is_replica());
        m.record_request(cmd);
        let sw = Stopwatch::start();
        let resp = match self.view.answer(cmd) {
            Some(resp) => resp,
            None => {
                let resp = self.execute_inner(cmd, sw);
                self.refresh_view();
                resp
            }
        };
        m.record_response(cmd, &resp, &sw);
        resp
    }

    fn execute_inner(&mut self, cmd: &Command, t0: Stopwatch) -> Response {
        if cmd.is_write() && self.is_replica() {
            return Response::Err(WireError::new(
                ErrCode::ReadOnly,
                "read replica: writes go to the writer plane",
            ));
        }
        match cmd {
            Command::Ingest(n) => {
                let end = (self.pool_cursor + n).min(self.pool.len());
                let ops: Vec<DeltaOp> =
                    self.pool[self.pool_cursor..end].iter().cloned().map(DeltaOp::Add).collect();
                let head = format!(
                    "ingest {} (feed {}..{})",
                    end - self.pool_cursor,
                    self.pool_cursor,
                    end
                );
                match self.apply_logged(ops) {
                    Ok(out) => {
                        self.pool_cursor = end;
                        Response::Ok(vec![head, format_delta(&out, t0.ms())])
                    }
                    Err(e) => Response::Err(e),
                }
            }
            Command::Add(t) => self.delta_response(vec![DeltaOp::Add(t.clone())], t0),
            Command::Retract(r) => match self.resolve(r) {
                Ok(t) => self.delta_response(vec![DeltaOp::Retract(t)], t0),
                Err(e) => Response::Err(e),
            },
            Command::Revise { old, new } => match self.resolve(old) {
                Ok(old) => self.delta_response(vec![DeltaOp::Revise { old, new: new.clone() }], t0),
                Err(e) => Response::Err(e),
            },
            Command::Query(_) | Command::Link(_) | Command::Stats | Command::Metrics => {
                unreachable!("reads are answered by ReadView::answer")
            }
            Command::Snapshot(path) => self.snapshot(path.as_deref(), t0),
            Command::Restore(path) => self.restore(path.as_deref(), t0),
            Command::Compact => {
                let out = self.session.compact();
                if let FeedRole::Writer(path) = &self.opts.feed {
                    // A *manual* compact is an explicit state transition
                    // the replica must replay at the same point in the
                    // stream (threshold-triggered compaction inside
                    // `apply` is deterministic from the shared config
                    // and needs no log entry).
                    match append_entry(path, &FeedEntry::Compact) {
                        Ok(end) => self.set_feed_offset(end),
                        Err(e) => return Response::Err(feed_append_failed(&e)),
                    }
                }
                self.version += 1;
                Response::line(format_delta(&out, t0.ms()))
            }
            Command::Quit => Response::line("bye"),
            Command::Shutdown => Response::line("shutting down"),
        }
    }

    /// Follower only: apply every complete new entry from the writer's
    /// log. Returns the number of entries applied (0 when already
    /// caught up, or for non-followers). A torn tail (writer mid-append)
    /// is not an error — the partial entry is picked up next poll.
    pub fn poll_feed(&mut self) -> Result<usize, KbError> {
        let FeedRole::Follower(path) = &self.opts.feed else { return Ok(0) };
        let (entries, end) = read_entries(path, self.feed_offset)?;
        // The lag gauge tracks bytes of writer log this follower has
        // not yet incorporated; it stays at the pre-catch-up value
        // while the batch applies and drops to zero after.
        let m = obs::plane(true);
        m.replication_lag.set(end.saturating_sub(self.feed_offset));
        if entries.is_empty() {
            return Ok(0);
        }
        let mut span = jocl_obs::span!("replica_catchup");
        span.add_count(entries.len() as u64);
        let applied = entries.len();
        for entry in entries {
            match entry {
                // Replay the writer's exact batch: warm-start work (and
                // therefore bitwise state parity) depends on batch
                // boundaries, which is why the log frames whole batches.
                FeedEntry::Ops(ops) => {
                    self.session.apply(&ops);
                }
                FeedEntry::Compact => {
                    self.session.compact();
                }
            }
            self.version += 1;
        }
        self.set_feed_offset(end);
        m.replication_lag.set(0);
        self.refresh_view();
        Ok(applied)
    }

    /// Advance the incorporated log offset and mirror it to this
    /// plane's gauge.
    fn set_feed_offset(&mut self, end: u64) {
        self.feed_offset = end;
        obs::plane(self.is_replica()).feed_offset.set(end);
    }

    /// Resolve a triple reference against the live session. A dead id
    /// is an error — its content may live on under a fresh id after a
    /// re-add, and expanding the reference would silently target that.
    fn resolve(&self, r: &TripleRef) -> Result<Triple, WireError> {
        match r {
            TripleRef::Content(t) => Ok(t.clone()),
            TripleRef::Id(id) => {
                let inner = self.session.session();
                if (*id as usize) >= inner.len() {
                    return Err(WireError::new(
                        ErrCode::BadId,
                        format!("triple #{id} does not exist (have {})", inner.len()),
                    ));
                }
                if !inner.is_live(TripleId(*id)) {
                    return Err(WireError::new(
                        ErrCode::BadId,
                        format!("triple #{id} is already retracted"),
                    ));
                }
                Ok(inner.okb().triple(TripleId(*id)).clone())
            }
        }
    }

    /// Apply one write batch and append it to the replication log.
    fn apply_logged(&mut self, ops: Vec<DeltaOp>) -> Result<DeltaOutput, WireError> {
        let out = self.session.apply(&ops);
        if let FeedRole::Writer(path) = &self.opts.feed {
            // Logged *after* a successful apply: a batch that dies never
            // reaches replicas. The inverse failure (applied locally,
            // append failed) is surfaced as an error so the operator
            // knows replicas are now behind until the next snapshot.
            let appended = {
                let _span = jocl_obs::span!("feed_append");
                append_entry(path, &FeedEntry::Ops(ops))
            };
            match appended {
                Ok(end) => self.set_feed_offset(end),
                Err(e) => {
                    self.version += 1;
                    return Err(feed_append_failed(&e));
                }
            }
        }
        self.version += 1;
        Ok(out)
    }

    fn delta_response(&mut self, ops: Vec<DeltaOp>, t0: Stopwatch) -> Response {
        match self.apply_logged(ops) {
            Ok(out) => Response::line(format_delta(&out, t0.ms())),
            Err(e) => Response::Err(e),
        }
    }

    fn snapshot(&mut self, path: Option<&Path>, t0: Stopwatch) -> Response {
        let path = path.map(Path::to_path_buf).unwrap_or_else(|| self.opts.snapshot_path.clone());
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return Response::Err(WireError::new(
                    ErrCode::Io,
                    format!("creating {}: {e}", dir.display()),
                ));
            }
        }
        let bytes = match self.session.snapshot_to(&path) {
            Ok(b) => b,
            Err(e) => return Response::Err(WireError::from_kb(&e)),
        };
        obs::plane(self.is_replica()).snapshot_save_ns.record(t0.ns());
        // The feeds' positions are process state the snapshot cannot
        // carry; the sidecar pins both so a restore (or a replica
        // warm-boot) resumes the generator feed and the replication log
        // exactly.
        let cursor =
            FeedCursor { pool_cursor: self.pool_cursor as u64, feed_offset: self.feed_offset };
        if let Err(e) = cursor.save(&path.with_extension("cursor")) {
            return Response::Err(WireError::from_kb(&e));
        }
        Response::line(format!(
            "  snapshot written: {} ({bytes} bytes, {:.1} ms)",
            path.display(),
            t0.ms()
        ))
    }

    fn restore(&mut self, path: Option<&Path>, t0: Stopwatch) -> Response {
        let path = path.map(Path::to_path_buf).unwrap_or_else(|| self.opts.snapshot_path.clone());
        if let Err(e) = self.restore_session(&path, t0) {
            return Response::Err(WireError::from_kb(&e));
        }
        Response::line(format!(
            "  restored warm from {} ({} triples, {} live, feed cursor -> {}, {:.1} ms)",
            path.display(),
            self.session.session().len(),
            self.session.session().num_live(),
            self.pool_cursor,
            t0.ms()
        ))
    }

    /// Replace the session with the snapshot at `path` and resync both
    /// feed positions from its cursor sidecar — the one restore path of
    /// the `restore` command and a replica's warm boot. Sidecar rules by
    /// role: a writer must have it (rewinding to an unknown log position
    /// would silently desync every replica) and truncates its log to the
    /// snapshot's offset, so replicas never replay operations the writer
    /// no longer has; a follower must have it to know where its log
    /// replay resumes; a feedless session falls back to the longest feed
    /// prefix present in the restored store (exact unless compaction
    /// has dropped retracted texts — the sidecar covers that). Nothing
    /// changes on error. Bumps the version and records the restore
    /// latency since `t0`; the caller recaptures the view.
    fn restore_session(&mut self, path: &Path, t0: Stopwatch) -> Result<(), KbError> {
        let restored = ServeSession::restore_from(
            path,
            self.config.clone(),
            self.serve.clone(),
            self.ckb,
            self.signals,
        )?;
        let (pool_cursor, feed_offset) = match FeedCursor::load(&path.with_extension("cursor")) {
            Ok(c) => ((c.pool_cursor as usize).min(self.pool.len()), c.feed_offset),
            Err(e) if self.opts.feed != FeedRole::None => return Err(e),
            Err(_) => {
                let seen: std::collections::HashSet<&Triple> =
                    restored.session().okb().triples().map(|(_, t)| t).collect();
                (self.pool.iter().take_while(|t| seen.contains(t)).count(), 0)
            }
        };
        if let FeedRole::Writer(feed_path) = &self.opts.feed {
            truncate_to(feed_path, feed_offset)?;
        }
        self.session = restored;
        self.pool_cursor = pool_cursor;
        self.set_feed_offset(feed_offset);
        self.version += 1;
        obs::plane(self.is_replica()).snapshot_restore_ns.record(t0.ns());
        Ok(())
    }
}

fn feed_append_failed(e: &KbError) -> WireError {
    WireError::new(
        ErrCode::Io,
        format!(
            "delta applied but replication-log append failed ({e}); replicas are behind \
                 until the next snapshot"
        ),
    )
}
