//! The serving read model: every `query`, `link`, `stats` and
//! `metrics` answer, on every plane, comes from one [`ReadView`].
//!
//! A [`ServeSession`] is single-writer: every delta mutates the factor
//! graph in place, so reads never touch it. The
//! [`Engine`](crate::engine::Engine) instead keeps an immutable
//! [`ReadView`] of the last **committed** decode (cloned OKB + live
//! mask + cached output, borrowing the shared CKB and side table) and
//! recaptures it after every command that may have changed state. Its
//! own reads and the socket handlers' reads both go through
//! [`ReadView::answer`]; the socket front-end publishes the engine's
//! view through a [`SharedView`]. Publication swaps one `Arc` pointer
//! under a short-lived lock; readers clone the `Arc` and then work
//! entirely on immutable data, so a view is observed either wholly
//! pre-delta or wholly post-delta. A torn view is structurally
//! impossible — there is no moment at which a reader holds
//! half-updated state.

use crate::api::{self, format_link, format_metrics, format_query, format_stats};
use crate::api::{LinkReport, LinkRequest, MentionReport};
use crate::protocol::{Command, Response};
use crate::{obs, LiveView, ServeSession};
use jocl_cluster::Clustering;
use jocl_core::JoclOutput;
use jocl_kb::{Ckb, NpMention, NpSlot, Okb, RpMention, SideKb, TripleId};
use jocl_text::fx::FxHashMap;
use std::sync::{Arc, RwLock};

/// Session summary served by `stats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStats {
    /// Total session triples (live + tombstoned).
    pub triples: usize,
    /// Live (non-retracted) triples.
    pub live: usize,
    /// Factor-graph variables.
    pub vars: usize,
    /// Factor-graph factors.
    pub factors: usize,
    /// Dead-factor density (compaction pressure).
    pub tombstone_density: f64,
    /// Delta operations applied over the session's lifetime.
    pub ops_applied: u64,
    /// Automatic + manual compactions.
    pub compactions: u64,
    /// Cumulative LBP message updates.
    pub total_message_updates: u64,
    /// Committed-write version the stats describe (0 = pristine).
    pub version: u64,
    /// Whether the serving plane is a read replica.
    pub replica: bool,
    /// Accounted resident heap bytes of the session state (OKB,
    /// blocking index, graph plan, committed messages, marginals).
    pub heap_bytes: usize,
    /// Milliseconds since the serving process started (monotonic —
    /// never a wall-clock read). Like the three fields below, sourced
    /// from the metrics registry when the `stats` answer is formatted;
    /// `0` as captured.
    pub uptime_ms: u64,
    /// Requests answered on this plane (`metrics` reads excluded —
    /// they record nothing, by the byte-stability contract).
    pub requests: u64,
    /// `ERR` responses sent on this plane.
    pub errors: u64,
    /// Duration of the most recent compaction (any plane in this
    /// process), `0` before the first.
    pub last_compaction_ms: u64,
}

/// An immutable capture of a committed decode, self-contained enough to
/// answer every read without touching the live session. Names and
/// side-table rows are looked up in the shared CKB and side table it
/// borrows.
#[derive(Debug)]
pub struct ReadView<'a> {
    ckb: &'a Ckb,
    /// The imported side table; `None` when absent or empty (an empty
    /// table is contractually inert).
    side: Option<Arc<SideKb>>,
    okb: Okb,
    live: Vec<bool>,
    output: Option<JoclOutput>,
    link_threshold: f64,
    /// Summary at capture time (carries the view's version).
    pub stats: SessionStats,
}

impl<'a> ReadView<'a> {
    /// Capture the current committed state of `session`.
    pub fn capture(session: &ServeSession<'a>, version: u64, replica: bool) -> Self {
        let inner = session.session();
        Self {
            ckb: inner.ckb(),
            side: inner.config().side_info.clone().filter(|s| !s.is_empty()),
            okb: inner.okb().clone(),
            live: (0..inner.len() as u32).map(|i| inner.is_live(TripleId(i))).collect(),
            output: session.last_output().cloned(),
            link_threshold: session.serve_config().link_threshold,
            stats: SessionStats {
                triples: inner.len(),
                live: inner.num_live(),
                vars: inner.num_vars(),
                factors: inner.num_factors(),
                tombstone_density: inner.tombstone_density(),
                ops_applied: session.ops_applied,
                compactions: session.compactions,
                total_message_updates: inner.total_message_updates,
                version,
                replica,
                heap_bytes: inner.heap_bytes(),
                uptime_ms: 0,
                requests: 0,
                errors: 0,
                last_compaction_ms: 0,
            },
        }
    }

    fn is_live(&self, t: TripleId) -> bool {
        self.live.get(t.0 as usize).copied().unwrap_or(false)
    }

    /// Answer a read command — `query`, `link`, `stats` or `metrics`
    /// ([`Command::is_read`]) — from this view; `None` for any other
    /// command. The one read path of every plane. The registry-sourced
    /// `stats` fields (uptime, this plane's request and error totals,
    /// last compaction) are stamped now, as the answer is formatted.
    pub fn answer(&self, cmd: &Command) -> Option<Response> {
        Some(match cmd {
            Command::Query(phrase) => {
                Response::Ok(format_query(phrase, &self.query_phrase(phrase)))
            }
            Command::Link(req) => Response::Ok(format_link(&self.link(req))),
            Command::Stats => {
                let mut stats = self.stats;
                let m = obs::plane(stats.replica);
                stats.uptime_ms = obs::process_start().ms_u64();
                stats.requests = m.requests_total.get();
                stats.errors = m.errors_total.get();
                stats.last_compaction_ms = obs::last_compaction_ms().get();
                Response::line(format_stats(&stats))
            }
            // A point-in-time read of the process-wide registry, never
            // recorded (see `obs`).
            Command::Metrics => Response::Ok(format_metrics(&jocl_obs::registry().snapshot())),
            _ => return None,
        })
    }

    /// The live-indexed read model; `None` before the first delta.
    pub fn live_view(&self) -> Option<LiveView> {
        let out = self.output.as_ref()?;
        Some(live_view_of(&self.okb, &|t| self.is_live(t), out))
    }

    /// Resolve a link request against this committed view (see [`api`]
    /// for the target grammar, URI scheme and confidence calibration).
    /// An imported side table contributes dictionary candidates even
    /// before the first delta.
    pub fn link(&self, req: &LinkRequest) -> LinkReport {
        api::link_of(
            &self.okb,
            &|t| self.is_live(t),
            self.output.as_ref(),
            self.ckb,
            self.side.as_deref(),
            req,
            self.link_threshold,
        )
    }

    /// Every live mention whose phrase equals `phrase`
    /// (case-insensitively), with its cluster and link. Empty before the
    /// first delta or when nothing matches.
    pub fn query_phrase(&self, phrase: &str) -> Vec<MentionReport> {
        let Some(out) = self.output.as_ref() else { return Vec::new() };
        let okb = &self.okb;
        let needle = phrase.trim().to_lowercase();
        let mut reports = Vec::new();
        // Live cluster membership, built in one pass per family (not one
        // scan per matching mention).
        let mut np_members: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for d in 0..okb.num_np_mentions() {
            if self.is_live(NpMention::from_dense(d).triple) {
                np_members.entry(out.np_clustering.cluster_of(d)).or_default().push(d);
            }
        }
        let mut rp_members: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
        for d in 0..okb.num_rp_mentions() {
            if self.is_live(TripleId(d as u32)) {
                rp_members.entry(out.rp_clustering.cluster_of(d)).or_default().push(d);
            }
        }
        for (t, triple) in okb.triples() {
            if !self.is_live(t) {
                continue;
            }
            for (slot, role, text) in [
                (NpSlot::Subject, "subject", &triple.subject),
                (NpSlot::Object, "object", &triple.object),
            ] {
                if text.to_lowercase() != needle {
                    continue;
                }
                let d = NpMention { triple: t, slot }.dense();
                let members = &np_members[&out.np_clustering.cluster_of(d)];
                let mut phrases: Vec<String> = members
                    .iter()
                    .map(|&m| okb.np_phrase(NpMention::from_dense(m)).to_string())
                    .collect();
                phrases.sort_unstable();
                phrases.dedup();
                reports.push(MentionReport {
                    triple: t,
                    role,
                    phrase: text.clone(),
                    cluster_size: members.len(),
                    cluster_phrases: phrases,
                    entity: out.np_links[d],
                    relation: None,
                });
            }
            if triple.predicate.to_lowercase() == needle {
                let d = RpMention(t).dense();
                let members = &rp_members[&out.rp_clustering.cluster_of(d)];
                let mut phrases: Vec<String> = members
                    .iter()
                    .map(|&m| okb.rp_phrase(RpMention(TripleId(m as u32))).to_string())
                    .collect();
                phrases.sort_unstable();
                phrases.dedup();
                reports.push(MentionReport {
                    triple: t,
                    role: "predicate",
                    phrase: triple.predicate.clone(),
                    cluster_size: members.len(),
                    cluster_phrases: phrases,
                    entity: None,
                    relation: out.rp_links[d],
                });
            }
        }
        reports
    }
}

/// The atomically-swapped published view: the writer [`store`]s a fresh
/// capture after each committed write, readers [`load`] an `Arc` and
/// never block each other or the writer for longer than the pointer
/// swap.
///
/// [`store`]: SharedView::store
/// [`load`]: SharedView::load
#[derive(Debug)]
pub struct SharedView<'a>(RwLock<Arc<ReadView<'a>>>);

impl<'a> SharedView<'a> {
    /// Publish an initial view.
    pub fn new(view: Arc<ReadView<'a>>) -> Self {
        Self(RwLock::new(view))
    }

    /// The current committed view. The lock is held only for the `Arc`
    /// clone; all query work happens on the returned immutable view.
    pub fn load(&self) -> Arc<ReadView<'a>> {
        // A poisoned lock only means a reader/writer panicked while
        // holding it for the pointer copy — the Arc itself is intact.
        match self.0.read() {
            Ok(g) => Arc::clone(&g),
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    /// Publish a new committed view (single writer).
    pub fn store(&self, view: Arc<ReadView<'a>>) {
        match self.0.write() {
            Ok(mut g) => *g = view,
            Err(p) => *p.into_inner() = view,
        }
    }
}

/// Re-index the decode over the live triples (shared by
/// [`ServeSession::live_view`] and [`ReadView::live_view`]) (survivor `k` gets the dense slots a
/// batch run on the survivors would assign).
pub(crate) fn live_view_of(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: &JoclOutput,
) -> LiveView {
    let triples: Vec<TripleId> =
        (0..okb.len() as u32).map(TripleId).filter(|&t| is_live(t)).collect();
    let mut np_links = Vec::with_capacity(triples.len() * 2);
    let mut rp_links = Vec::with_capacity(triples.len());
    let mut np_labels = Vec::with_capacity(triples.len() * 2);
    let mut rp_labels = Vec::with_capacity(triples.len());
    for &t in &triples {
        for slot in [NpSlot::Subject, NpSlot::Object] {
            let d = NpMention { triple: t, slot }.dense();
            np_links.push(out.np_links[d]);
            np_labels.push(out.np_clustering.cluster_of(d));
        }
        let d = RpMention(t).dense();
        rp_links.push(out.rp_links[d]);
        rp_labels.push(out.rp_clustering.cluster_of(d));
    }
    LiveView {
        triples,
        np_links,
        rp_links,
        np_clustering: Clustering::from_labels(&np_labels),
        rp_clustering: Clustering::from_labels(&rp_labels),
    }
}
