//! # jocl-serve
//!
//! The durable serving subsystem (ROADMAP "deletion + revision deltas"
//! and "session persistence"): a [`ServeSession`] wraps the warm
//! incremental canonicalization session
//! ([`jocl_core::IncrementalJocl`]) into something a long-running
//! process can actually operate —
//!
//! * **full delta vocabulary** — [`DeltaOp::Add`], [`DeltaOp::Retract`]
//!   and [`DeltaOp::Revise`] flow through [`ServeSession::apply`];
//!   retractions tombstone their factors (the graph shrinks
//!   semantically while staying append-only physically) and the live
//!   decode keeps parity with a from-scratch batch run on the
//!   survivors;
//! * **automatic compaction** — tombstones accumulate wasted capacity;
//!   when the dead-factor density crosses
//!   [`ServeConfig::compact_threshold`], the session is rebuilt cold
//!   from the survivors (same decode, compact graph) and the delta that
//!   triggered it reports [`jocl_core::DeltaStats::compacted`];
//! * **warm snapshots** — [`ServeSession::snapshot_to`] /
//!   [`ServeSession::restore_from`] persist the entire session through
//!   the [`snapshot`] envelope (one sealed record: magic, length and
//!   checksum around the config fingerprint and
//!   `IncrementalJocl::{export,import}_state`), so a restarted
//!   process resumes with **bitwise-identical** LBP messages instead of
//!   a cold rebuild;
//! * **queries** — [`ServeSession::live_view`] exposes the decoded
//!   output re-indexed over the live triples (the batch-parity shape);
//!   every served read — `query` ("what cluster is this phrase in, and
//!   where does it link" per mention), `link`, `stats`, `metrics` — is
//!   answered from a committed [`view::ReadView`] capture of the
//!   session, on every plane.
//!
//! The CKB, the frozen [`Signals`] and the
//! [`JoclConfig`] are shared serving resources provided at open/restore
//! time, exactly like pretrained weights in the batch serving path; the
//! snapshot fingerprints the config so a restore under a different
//! configuration fails loudly instead of silently diverging.
//!
//! The serve loop itself is transport-agnostic ([`engine::Engine`]
//! executes parsed [`protocol::Command`]s): the `serve` binary of
//! `jocl_bench` drives it from stdin or — with `JOCL_LISTEN` — behind
//! the [`net`] socket front-end, which serves concurrent reads from the
//! engine's atomically-swapped [`view::ReadView`] while the single
//! writer applies deltas and feeds read replicas through the
//! [`engine`]'s replication log. The `serve_scale` and `serve_net`
//! gates certify retraction parity, warm-restore savings, replica
//! bitwise parity and serve-loop robustness at CI scale.

pub mod api;
pub mod engine;
pub mod net;
pub(crate) mod obs;
pub mod protocol;
pub mod snapshot;
pub mod view;

pub use api::{
    format_link, format_metrics, format_query, format_stats, parse_link, parse_link_target,
    parse_metrics, parse_query, parse_stats, LinkCandidate, LinkReport, LinkRequest, LinkTarget,
    MentionReport,
};
pub use engine::{Engine, EngineOptions, FeedRole};
pub use net::{ListenAddr, NetStats};
pub use protocol::{parse_command, Command, ErrCode, Response, TripleRef, WireError};
pub use view::{ReadView, SessionStats, SharedView};

use jocl_cluster::Clustering;
use jocl_core::{DeltaOp, DeltaOutput, IncrementalJocl, JoclConfig, JoclOutput, Signals};
use jocl_kb::{Ckb, EntityId, KbError, RelationId, TripleId};
use std::path::Path;

/// Serving-layer policy knobs (the model configuration stays in
/// [`JoclConfig`]). Construct via [`ServeConfig::builder`] — bins and
/// tests should not hand-assemble the struct, so new knobs can land
/// without touching every call site.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tombstone (dead-factor) density above which
    /// [`ServeSession::apply`] compacts the session after the delta.
    /// Density never exceeds 1.0, so `f64::INFINITY` disables automatic
    /// compaction (manual [`ServeSession::compact`] still works).
    pub compact_threshold: f64,
    /// Minimum calibrated confidence a `link` candidate must reach to be
    /// reported (the request's own `threshold=` overrides it). `0.0`
    /// reports everything.
    pub link_threshold: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Past half the factors being tombstones, every sweep does more
        // dead work than live work — rebuild.
        Self { compact_threshold: 0.5, link_threshold: 0.0 }
    }
}

impl ServeConfig {
    /// Start from the defaults and override what you need.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: Self::default() }
    }
}

/// Builder for [`ServeConfig`]; every setter validates its knob at
/// construction time, so a misconfigured serving plane fails before it
/// opens a session.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Set the auto-compaction density threshold (`f64::INFINITY`
    /// disables auto-compaction).
    ///
    /// # Panics
    /// Panics when the value is NaN or negative.
    pub fn compact_threshold(mut self, density: f64) -> Self {
        assert!(
            !density.is_nan() && density >= 0.0,
            "compact_threshold must be a non-negative density (or +inf to disable), got {density}"
        );
        self.config.compact_threshold = density;
        self
    }

    /// Set the default minimum `link` candidate confidence.
    ///
    /// # Panics
    /// Panics unless the value is finite and in `[0, 1]`.
    pub fn link_threshold(mut self, confidence: f64) -> Self {
        assert!(
            confidence.is_finite() && (0.0..=1.0).contains(&confidence),
            "link_threshold must be a confidence in [0, 1], got {confidence}"
        );
        self.config.link_threshold = confidence;
        self
    }

    /// Finish the configuration.
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

/// The decoded serving state re-indexed over **live** triples: survivor
/// `k` is `triples[k]`, its mentions occupy the dense slots a batch run
/// on the survivors would give them (subject `2k`, object `2k+1`,
/// predicate `k`). This is both the natural read model for serving and
/// the exact shape of the batch-parity contract — compare it field by
/// field against a `Jocl` run on the survivors.
#[derive(Debug, Clone)]
pub struct LiveView {
    /// Live session triple ids, ascending.
    pub triples: Vec<TripleId>,
    /// Entity link per live NP mention (2 per live triple).
    pub np_links: Vec<Option<EntityId>>,
    /// Relation link per live RP mention.
    pub rp_links: Vec<Option<RelationId>>,
    /// Clustering over live NP mentions (canonical labels).
    pub np_clustering: Clustering,
    /// Clustering over live RP mentions.
    pub rp_clustering: Clustering,
}

/// A durable, restartable serving session.
#[derive(Debug)]
pub struct ServeSession<'a> {
    inner: IncrementalJocl<'a>,
    serve: ServeConfig,
    last: Option<JoclOutput>,
    /// Delta operations applied over the session's lifetime.
    pub ops_applied: u64,
    /// Automatic + manual compactions performed.
    pub compactions: u64,
}

impl<'a> ServeSession<'a> {
    /// Open a fresh session over shared serving resources.
    pub fn open(
        config: JoclConfig,
        serve: ServeConfig,
        ckb: &'a Ckb,
        signals: &'a Signals,
    ) -> Self {
        Self {
            inner: IncrementalJocl::new(config, ckb, signals),
            serve,
            last: None,
            ops_applied: 0,
            compactions: 0,
        }
    }

    /// Apply one delta of add/retract/revise operations; compacts
    /// afterwards when the tombstone density crossed the threshold
    /// (reported via `stats.compacted` — the decode is the same either
    /// way, that is the parity contract).
    pub fn apply(&mut self, ops: &[DeltaOp]) -> DeltaOutput {
        let mut out = self.inner.apply_ops(ops);
        self.ops_applied += ops.len() as u64;
        if self.inner.tombstone_density() > self.serve.compact_threshold {
            let compacted = self.inner.compact();
            self.compactions += 1;
            // Keep the op-level stats (what *this* delta did), but the
            // post-compaction decode and the flag.
            out.stats.compacted = true;
            out.output = compacted.output;
        }
        self.last = Some(out.output.clone());
        out
    }

    /// Convenience: apply a pure-append delta.
    pub fn add_all(&mut self, triples: &[jocl_kb::Triple]) -> DeltaOutput {
        let ops: Vec<DeltaOp> = triples.iter().cloned().map(DeltaOp::Add).collect();
        self.apply(&ops)
    }

    /// Rebuild cold from the survivors now, regardless of density.
    pub fn compact(&mut self) -> DeltaOutput {
        let out = self.inner.compact();
        self.compactions += 1;
        self.last = Some(out.output.clone());
        out
    }

    /// The wrapped incremental session (read access for stats/tests).
    pub fn session(&self) -> &IncrementalJocl<'a> {
        &self.inner
    }

    /// Mutable access to the wrapped session — state export and the
    /// lazily materialized OKB dedup index need `&mut`.
    pub fn session_mut(&mut self) -> &mut IncrementalJocl<'a> {
        &mut self.inner
    }

    /// The serving policy in force.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve
    }

    /// The decode of the most recent delta (or restore), if any.
    pub fn last_output(&self) -> Option<&JoclOutput> {
        self.last.as_ref()
    }

    /// The live-indexed read model (see [`LiveView`]); `None` before the
    /// first delta.
    pub fn live_view(&self) -> Option<LiveView> {
        let out = self.last.as_ref()?;
        Some(view::live_view_of(self.inner.okb(), &|t| self.inner.is_live(t), out))
    }

    /// Persist the warm session to `path` (see [`snapshot`] for the file
    /// format). Returns the snapshot size in bytes. All failures carry
    /// the path ([`KbError::WithPath`]).
    pub fn snapshot_to(&mut self, path: &Path) -> Result<u64, KbError> {
        // The span lives here, NOT in `snapshot` — that module is a
        // designated determinism module (lint R4) and may not read the
        // clock; timing wraps the codec from outside.
        let _span = jocl_obs::span!("snapshot_save");
        snapshot::save_session(&mut self.inner, path)
    }

    /// Restore a session persisted with [`ServeSession::snapshot_to`].
    /// `config` must match the snapshot's fingerprint. The restored
    /// session resumes with bitwise-identical messages; its last decode
    /// is reproduced from the restored marginals **without inference**
    /// ([`IncrementalJocl::decode_current`] — even an
    /// unconverged-at-snapshot session restores untouched; the next real
    /// delta re-primes it), so queries work immediately.
    pub fn restore_from(
        path: &Path,
        config: JoclConfig,
        serve: ServeConfig,
        ckb: &'a Ckb,
        signals: &'a Signals,
    ) -> Result<Self, KbError> {
        let _span = jocl_obs::span!("snapshot_restore");
        let inner = snapshot::load_session(path, config, ckb, signals)?;
        let last = if inner.is_empty() { None } else { Some(inner.decode_current()) };
        Ok(Self { inner, serve, last, ops_applied: 0, compactions: 0 })
    }
}
