//! The typed serving API: structured request/response types for the
//! read-side commands, with **one** serialization path shared by
//! library callers, the interactive stdin loop and the socket protocol.
//! Every plane builds its read responses in one place,
//! [`ReadView::answer`](crate::ReadView::answer).
//!
//! Four response families live here:
//!
//! * [`MentionReport`] + [`format_query`]/[`parse_query`] — the `query`
//!   command's per-mention cluster/link report (`query.v1` frames);
//! * [`LinkReport`] + [`format_link`]/[`parse_link`] — the `link`
//!   command's entity-linking answer (`link.v1` frames): canonical
//!   cluster URIs with calibrated confidences, backed by the decoded
//!   clustering *and* any imported external-KB side information
//!   ([`jocl_kb::SideKb`]);
//! * [`format_stats`]/[`parse_stats`] — the `stats` command's session
//!   summary (`stats.v1`, one line of `key=value` fields in fixed
//!   order);
//! * [`format_metrics`]/[`parse_metrics`] — the `metrics` command's
//!   registry exposition (`metrics.v1`, Prometheus-style
//!   `name{label="v"} value` lines in sorted key order).
//!
//! ## Wire formats (versioned field order)
//!
//! All frames are payload lines inside the protocol's `OK <n>` framing.
//! The first payload line is a versioned header; the version token is
//! the contract — fields are only ever *appended* within a version, and
//! any reordering bumps it.
//!
//! ```text
//! query.v1 matches=<n> <phrase>
//! mention #<triple> <role> cluster=<size> entity=<id|-> relation=<id|-> <phrase> <cluster-phrases>
//!
//! link.v1 np=<n> rp=<m> <target>
//! np <uri> <confidence> <support> <cluster_size> <label…>
//! rp <uri> <confidence> <support> <cluster_size> <label…>
//!
//! stats.v1 triples=<n> live=<n> vars=<n> factors=<n> density=<f> ops=<n> compactions=<n>
//!          msg=<n> heap_bytes=<n> version=<n> plane=<writer|replica> uptime_ms=<n>
//!          requests=<n> errors=<n> last_compaction_ms=<n>          (one line)
//!
//! metrics.v1 entries=<n>
//! <name>{<k>="<v>",…} <u64>                                        (counters, gauges)
//! <name>_bucket{…,le="<2^k|+Inf>"} <cumulative>                    (histograms, then)
//! <name>_count{…} <n>
//! <name>_sum{…} <n>
//! ```
//!
//! `metrics.v1` values are integers only (nanoseconds, bytes, counts)
//! and the registry snapshot iterates in sorted canonical-key order, so
//! an idle server's frame is **byte-identical** across reads — the
//! determinism the `obs_scale` gate certifies. Histogram buckets are
//! cumulative, log-base-2 upper bounds, elided after the last occupied
//! bucket (the `+Inf` bucket always closes the series).
//!
//! Variable-width text (phrases, labels) always sits **last** on its
//! line so the fixed prefix parses with plain `split`; confidences are
//! printed with `f64`'s shortest-roundtrip `Display`, so a parsed frame
//! reproduces the server's floats bit for bit.
//!
//! ## Canonical URIs
//!
//! * `jocl://np/<cluster>/<slug>` — a decoded NP cluster (the open KB's
//!   own canonical entity);
//! * `jocl://rp/<cluster>/<slug>` — a decoded RP cluster;
//! * `ckb://entity/<id>/<slug>` — a curated-KB entity;
//! * `ckb://relation/<id>/<slug>` — a curated-KB relation.
//!
//! The numeric id is authoritative; the trailing slug is a sanitized
//! label for human eyes and is ignored (and optional) on input.
//!
//! ## Confidence calibration
//!
//! For a surface-form target, candidates are **vote shares**: each
//! matched live mention casts one vote per family (cluster membership
//! for `jocl://` candidates, its decoded link for `ckb://` candidates),
//! and confidence = votes / matched mentions — so within a family the
//! `ckb://` confidences sum to at most 1, as do the cluster
//! confidences. Candidates contributed only by the imported side table
//! carry the import weight as confidence and `support = 0`, making
//! "decoded evidence" and "dictionary evidence" distinguishable in the
//! same ranked list.

use crate::protocol::{ErrCode, WireError};
use crate::view::SessionStats;
use jocl_core::JoclOutput;
use jocl_kb::{Ckb, EntityId, NpMention, Okb, RelationId, RpMention, SideKb, TripleId};
use jocl_obs::{MetricValue, MetricsSnapshot};
use jocl_text::fx::FxHashMap;

/// Candidates returned per family when the request does not say.
pub const DEFAULT_LINK_LIMIT: usize = 10;

/// One live mention matching a `query` request.
#[derive(Debug, Clone)]
pub struct MentionReport {
    /// Owning session triple.
    pub triple: TripleId,
    /// `"subject"`, `"object"` or `"predicate"`.
    pub role: &'static str,
    /// The mention's surface phrase.
    pub phrase: String,
    /// Live mentions sharing its cluster (including itself).
    pub cluster_size: usize,
    /// Distinct phrases of the cluster's live members, sorted.
    pub cluster_phrases: Vec<String>,
    /// Linked entity (NP) — `None` for predicates or unlinked mentions.
    pub entity: Option<EntityId>,
    /// Linked relation (RP mentions only).
    pub relation: Option<RelationId>,
}

/// What a `link` request resolves. Parsed by [`parse_link_target`];
/// anything that is not a recognized URI is a surface form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkTarget {
    /// A surface phrase, matched against live mentions (and the side
    /// table) case-insensitively.
    Surface(String),
    /// A decoded NP cluster by id (`jocl://np/<id>`).
    NpCluster(u32),
    /// A decoded RP cluster by id (`jocl://rp/<id>`).
    RpCluster(u32),
    /// A curated-KB entity (`ckb://entity/<id>`): reverse lookup of the
    /// NP clusters linking to it.
    Entity(u32),
    /// A curated-KB relation (`ckb://relation/<id>`).
    Relation(u32),
}

impl std::fmt::Display for LinkTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkTarget::Surface(s) => write!(f, "{s}"),
            LinkTarget::NpCluster(id) => write!(f, "jocl://np/{id}"),
            LinkTarget::RpCluster(id) => write!(f, "jocl://rp/{id}"),
            LinkTarget::Entity(id) => write!(f, "ckb://entity/{id}"),
            LinkTarget::Relation(id) => write!(f, "ckb://relation/{id}"),
        }
    }
}

/// A parsed `link` request. `None` options fall back to the serving
/// defaults ([`DEFAULT_LINK_LIMIT`], `ServeConfig::link_threshold`).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRequest {
    /// What to resolve.
    pub target: LinkTarget,
    /// Per-family candidate cap.
    pub limit: Option<usize>,
    /// Minimum confidence a candidate must reach.
    pub threshold: Option<f64>,
}

impl LinkRequest {
    /// A request for a surface phrase with default limit/threshold.
    pub fn surface(phrase: impl Into<String>) -> Self {
        Self { target: LinkTarget::Surface(phrase.into()), limit: None, threshold: None }
    }
}

/// One ranked link candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCandidate {
    /// Canonical URI (see the module docs for the grammar).
    pub uri: String,
    /// Human-readable label (cluster canonical phrase / CKB name).
    pub label: String,
    /// Calibrated confidence in `[0, 1]` (see the module docs).
    pub confidence: f64,
    /// Matched live mentions voting for this candidate (`0` for
    /// candidates contributed only by the imported side table).
    pub support: usize,
    /// Live size of the backing cluster (`0` for `ckb://` candidates).
    pub cluster_size: usize,
}

/// The `link` response: ranked candidates per mention family.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// The resolved target, in canonical form.
    pub target: String,
    /// Noun-phrase-side candidates (`jocl://np/…`, `ckb://entity/…`).
    pub np: Vec<LinkCandidate>,
    /// Relation-phrase-side candidates (`jocl://rp/…`, `ckb://relation/…`).
    pub rp: Vec<LinkCandidate>,
}

impl LinkReport {
    /// True when neither family produced a candidate (a miss is an
    /// answer, not an error).
    pub fn is_empty(&self) -> bool {
        self.np.is_empty() && self.rp.is_empty()
    }
}

/// Parse a `link` target: a `jocl://` / `ckb://` URI, or a surface
/// phrase. Malformed URIs (unknown scheme or kind, non-numeric id) are
/// typed parse errors; a *well-formed* URI whose id does not exist is
/// left for the serving layer to answer with an empty report.
pub fn parse_link_target(s: &str) -> Result<LinkTarget, WireError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(WireError::new(ErrCode::Parse, "link needs a phrase or a jocl://|ckb:// URI"));
    }
    let Some((scheme, rest)) = s.split_once("://") else {
        return Ok(LinkTarget::Surface(s.to_string()));
    };
    let mut parts = rest.split('/');
    let kind = parts.next().unwrap_or("");
    let id = parts.next().unwrap_or("");
    // Anything past the id is the cosmetic slug; ignored.
    let id: u32 = id.parse().map_err(|_| {
        WireError::new(ErrCode::Parse, format!("link URI needs a numeric id, got {s:?}"))
    })?;
    match (scheme, kind) {
        ("jocl", "np") => Ok(LinkTarget::NpCluster(id)),
        ("jocl", "rp") => Ok(LinkTarget::RpCluster(id)),
        ("ckb", "entity") => Ok(LinkTarget::Entity(id)),
        ("ckb", "relation") => Ok(LinkTarget::Relation(id)),
        _ => Err(WireError::new(
            ErrCode::Parse,
            format!(
                "unknown link URI {s:?} (expected jocl://np|rp/<id> or ckb://entity|relation/<id>)"
            ),
        )),
    }
}

/// Sanitize a label into a URI slug: lowercase, `[a-z0-9]` runs joined
/// by single dashes, capped at 32 bytes, never empty.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len().min(32));
    let mut dash = false;
    for c in label.chars().flat_map(char::to_lowercase) {
        if c.is_ascii_alphanumeric() {
            if dash && !out.is_empty() {
                out.push('-');
            }
            dash = false;
            out.push(c);
            if out.len() >= 32 {
                break;
            }
        } else {
            dash = true;
        }
    }
    if out.is_empty() {
        out.push('x');
    }
    out
}

/// NP surface lookup falls back to the determiner-stripped key, exactly
/// as the inference-side injection does (`jocl_core`'s side lookup), so
/// the factors and the serving answer agree on which rows apply.
fn with_determiner_fallback<T>(surface: &str, lookup: impl Fn(&str) -> Vec<T>) -> Vec<T> {
    let rows = lookup(surface);
    if rows.is_empty() {
        if let Some(stripped) = surface.trim().strip_prefix("the ") {
            return lookup(stripped);
        }
    }
    rows
}

/// Resolve `req.target` against a committed decode (`out`), the shared
/// curated KB and the imported side table (`side`, already filtered for
/// emptiness) — the body of [`ReadView::link`](crate::ReadView::link).
/// `None` output (pre-delta session) still answers surface targets from
/// the side table alone.
pub(crate) fn link_of(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: Option<&JoclOutput>,
    ckb: &Ckb,
    side: Option<&SideKb>,
    req: &LinkRequest,
    default_threshold: f64,
) -> LinkReport {
    let limit = req.limit.unwrap_or(DEFAULT_LINK_LIMIT);
    let threshold = req.threshold.unwrap_or(default_threshold);
    let (mut np, mut rp) = match (&req.target, out) {
        (LinkTarget::Surface(phrase), _) => {
            surface_candidates(okb, is_live, out, ckb, side, phrase)
        }
        (_, None) => (Vec::new(), Vec::new()),
        (&LinkTarget::NpCluster(c), Some(out)) => {
            (cluster_candidates::<NpFamily>(okb, is_live, out, ckb, c), Vec::new())
        }
        (&LinkTarget::RpCluster(c), Some(out)) => {
            (Vec::new(), cluster_candidates::<RpFamily>(okb, is_live, out, ckb, c))
        }
        (&LinkTarget::Entity(e), Some(out)) => {
            (reverse_candidates::<NpFamily>(okb, is_live, out, EntityId(e)), Vec::new())
        }
        (&LinkTarget::Relation(r), Some(out)) => {
            (Vec::new(), reverse_candidates::<RpFamily>(okb, is_live, out, RelationId(r)))
        }
    };
    for cands in [&mut np, &mut rp] {
        cands.retain(|c| c.confidence >= threshold);
        // Confidence descending, URI ascending: a total order, so the
        // answer does not depend on candidate construction order.
        cands.sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then_with(|| a.uri.cmp(&b.uri)));
        cands.truncate(limit);
    }
    LinkReport { target: req.target.to_string(), np, rp }
}

/// The two mention families, abstracted just enough for the candidate
/// builders to be written once.
trait Family {
    type Target: Copy + Eq + std::hash::Hash;
    const SCHEME: &'static str; // jocl://<scheme>/…
    const CKB_KIND: &'static str; // ckb://<kind>/…
    fn num_mentions(okb: &Okb) -> usize;
    fn mention_triple(dense: usize) -> TripleId;
    fn phrase(okb: &Okb, dense: usize) -> &str;
    fn cluster_of(out: &JoclOutput, dense: usize) -> u32;
    fn link_of_mention(out: &JoclOutput, dense: usize) -> Option<Self::Target>;
    fn target_id(t: Self::Target) -> u32;
    /// Canonical name of a curated target (`None` when out of range).
    fn target_name(ckb: &Ckb, t: Self::Target) -> Option<&str>;
}

struct NpFamily;
impl Family for NpFamily {
    type Target = EntityId;
    const SCHEME: &'static str = "np";
    const CKB_KIND: &'static str = "entity";
    fn num_mentions(okb: &Okb) -> usize {
        okb.num_np_mentions()
    }
    fn mention_triple(dense: usize) -> TripleId {
        NpMention::from_dense(dense).triple
    }
    fn phrase(okb: &Okb, dense: usize) -> &str {
        okb.np_phrase(NpMention::from_dense(dense))
    }
    fn cluster_of(out: &JoclOutput, dense: usize) -> u32 {
        out.np_clustering.cluster_of(dense)
    }
    fn link_of_mention(out: &JoclOutput, dense: usize) -> Option<EntityId> {
        out.np_links[dense]
    }
    fn target_id(t: EntityId) -> u32 {
        t.0
    }
    fn target_name(ckb: &Ckb, t: EntityId) -> Option<&str> {
        (t.idx() < ckb.num_entities()).then(|| ckb.entity(t).name.as_str())
    }
}

struct RpFamily;
impl Family for RpFamily {
    type Target = RelationId;
    const SCHEME: &'static str = "rp";
    const CKB_KIND: &'static str = "relation";
    fn num_mentions(okb: &Okb) -> usize {
        okb.num_rp_mentions()
    }
    fn mention_triple(dense: usize) -> TripleId {
        TripleId(dense as u32)
    }
    fn phrase(okb: &Okb, dense: usize) -> &str {
        okb.rp_phrase(RpMention(TripleId(dense as u32)))
    }
    fn cluster_of(out: &JoclOutput, dense: usize) -> u32 {
        out.rp_clustering.cluster_of(dense)
    }
    fn link_of_mention(out: &JoclOutput, dense: usize) -> Option<RelationId> {
        out.rp_links[dense]
    }
    fn target_id(t: RelationId) -> u32 {
        t.0
    }
    fn target_name(ckb: &Ckb, t: RelationId) -> Option<&str> {
        (t.idx() < ckb.num_relations()).then(|| ckb.relation(t).name.as_str())
    }
}

/// Canonical label of a cluster: the most frequent phrase among its
/// live members, ties to the lexicographically smallest.
fn cluster_label(phrase_counts: &FxHashMap<&str, usize>) -> String {
    phrase_counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(p, _)| (*p).to_string())
        .unwrap_or_else(|| "?".to_string())
}

fn jocl_uri<F: Family>(cluster: u32, label: &str) -> String {
    format!("jocl://{}/{cluster}/{}", F::SCHEME, slug(label))
}

fn ckb_uri<F: Family>(id: u32, label: &str) -> String {
    format!("ckb://{}/{id}/{}", F::CKB_KIND, slug(label))
}

/// Vote-share candidates for one family of a surface target: the
/// matched mentions' clusters and decoded links, then side-table rows
/// for targets the decode did not already nominate.
fn surface_family<F: Family>(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: Option<&JoclOutput>,
    ckb: &Ckb,
    needle: &str,
    side_rows: &[(F::Target, f64)],
) -> Vec<LinkCandidate> {
    let mut cands = Vec::new();
    if let Some(out) = out {
        let matched: Vec<usize> = (0..F::num_mentions(okb))
            .filter(|&d| {
                is_live(F::mention_triple(d)) && F::phrase(okb, d).to_lowercase() == needle
            })
            .collect();
        if !matched.is_empty() {
            let total = matched.len() as f64;
            let mut cluster_votes: FxHashMap<u32, usize> = FxHashMap::default();
            let mut target_votes: FxHashMap<F::Target, usize> = FxHashMap::default();
            for &d in &matched {
                *cluster_votes.entry(F::cluster_of(out, d)).or_default() += 1;
                if let Some(t) = F::link_of_mention(out, d) {
                    *target_votes.entry(t).or_default() += 1;
                }
            }
            // One sweep for the matched clusters' live sizes and labels.
            let mut sizes: FxHashMap<u32, usize> = FxHashMap::default();
            let mut labels: FxHashMap<u32, FxHashMap<&str, usize>> = FxHashMap::default();
            for d in 0..F::num_mentions(okb) {
                if !is_live(F::mention_triple(d)) {
                    continue;
                }
                let c = F::cluster_of(out, d);
                if cluster_votes.contains_key(&c) {
                    *sizes.entry(c).or_default() += 1;
                    *labels.entry(c).or_default().entry(F::phrase(okb, d)).or_default() += 1;
                }
            }
            // Candidates are emitted in sorted id order: the response
            // bytes must not depend on hash-map iteration order (R4).
            let mut ordered_clusters: Vec<(u32, usize)> = cluster_votes.into_iter().collect();
            ordered_clusters.sort_unstable_by_key(|&(c, _)| c);
            for (c, votes) in ordered_clusters {
                let label = cluster_label(&labels[&c]);
                cands.push(LinkCandidate {
                    uri: jocl_uri::<F>(c, &label),
                    label,
                    confidence: votes as f64 / total,
                    support: votes,
                    cluster_size: sizes[&c],
                });
            }
            let mut ordered_targets: Vec<(F::Target, usize)> = target_votes.into_iter().collect();
            ordered_targets.sort_unstable_by_key(|&(t, _)| F::target_id(t));
            for (t, votes) in ordered_targets {
                let label = F::target_name(ckb, t).unwrap_or("?").to_string();
                cands.push(LinkCandidate {
                    uri: ckb_uri::<F>(F::target_id(t), &label),
                    label,
                    confidence: votes as f64 / total,
                    support: votes,
                    cluster_size: 0,
                });
            }
        }
    }
    // Side-table rows: dictionary evidence for targets the decode has
    // not already nominated (decoded votes win on a shared URI).
    for &(t, weight) in side_rows {
        let label = F::target_name(ckb, t).unwrap_or("?").to_string();
        let uri = ckb_uri::<F>(F::target_id(t), &label);
        if cands.iter().any(|c| c.uri == uri) {
            continue;
        }
        cands.push(LinkCandidate { uri, label, confidence: weight, support: 0, cluster_size: 0 });
    }
    cands
}

fn surface_candidates(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: Option<&JoclOutput>,
    ckb: &Ckb,
    side: Option<&SideKb>,
    phrase: &str,
) -> (Vec<LinkCandidate>, Vec<LinkCandidate>) {
    let needle = phrase.trim().to_lowercase();
    // Side-table rows resolved to curated ids; NP keys fall back to the
    // determiner-stripped form.
    let (mut side_entities, mut side_relations) = (Vec::new(), Vec::new());
    if let Some(side) = side {
        side_entities = with_determiner_fallback(&needle, |key| {
            side.entity_links(key)
                .iter()
                .filter_map(|l| ckb.entity_by_name(side.resolve(l.target)).map(|id| (id, l.weight)))
                .collect()
        });
        side_relations = side
            .relation_links(&needle)
            .iter()
            .filter_map(|l| ckb.relation_by_name(side.resolve(l.target)).map(|id| (id, l.weight)))
            .collect();
    }
    let np = surface_family::<NpFamily>(okb, is_live, out, ckb, &needle, &side_entities);
    let rp = surface_family::<RpFamily>(okb, is_live, out, ckb, &needle, &side_relations);
    (np, rp)
}

/// Candidates for a cluster target: the cluster itself (confidence 1 —
/// it *is* the canonical entity) plus its members' decoded links as
/// vote shares over the live membership. An unknown or fully retracted
/// cluster id yields an empty report.
fn cluster_candidates<F: Family>(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: &JoclOutput,
    ckb: &Ckb,
    cluster: u32,
) -> Vec<LinkCandidate> {
    let mut members = 0usize;
    let mut labels: FxHashMap<&str, usize> = FxHashMap::default();
    let mut target_votes: FxHashMap<F::Target, usize> = FxHashMap::default();
    for d in 0..F::num_mentions(okb) {
        if !is_live(F::mention_triple(d)) || F::cluster_of(out, d) != cluster {
            continue;
        }
        members += 1;
        *labels.entry(F::phrase(okb, d)).or_default() += 1;
        if let Some(t) = F::link_of_mention(out, d) {
            *target_votes.entry(t).or_default() += 1;
        }
    }
    if members == 0 {
        return Vec::new();
    }
    let label = cluster_label(&labels);
    let mut cands = vec![LinkCandidate {
        uri: jocl_uri::<F>(cluster, &label),
        label,
        confidence: 1.0,
        support: members,
        cluster_size: members,
    }];
    // Sorted target order: response bytes must not depend on hash-map
    // iteration order (R4).
    let mut ordered_targets: Vec<(F::Target, usize)> = target_votes.into_iter().collect();
    ordered_targets.sort_unstable_by_key(|&(t, _)| F::target_id(t));
    for (t, votes) in ordered_targets {
        let label = F::target_name(ckb, t).unwrap_or("?").to_string();
        cands.push(LinkCandidate {
            uri: ckb_uri::<F>(F::target_id(t), &label),
            label,
            confidence: votes as f64 / members as f64,
            support: votes,
            cluster_size: members,
        });
    }
    cands
}

/// Reverse lookup for a curated-KB target: every live cluster with at
/// least one member decoded to it, confidence = linked members / live
/// cluster size.
fn reverse_candidates<F: Family>(
    okb: &Okb,
    is_live: &dyn Fn(TripleId) -> bool,
    out: &JoclOutput,
    target: F::Target,
) -> Vec<LinkCandidate> {
    let mut sizes: FxHashMap<u32, usize> = FxHashMap::default();
    let mut votes: FxHashMap<u32, usize> = FxHashMap::default();
    let mut labels: FxHashMap<u32, FxHashMap<&str, usize>> = FxHashMap::default();
    for d in 0..F::num_mentions(okb) {
        if !is_live(F::mention_triple(d)) {
            continue;
        }
        let c = F::cluster_of(out, d);
        *sizes.entry(c).or_default() += 1;
        *labels.entry(c).or_default().entry(F::phrase(okb, d)).or_default() += 1;
        if F::link_of_mention(out, d) == Some(target) {
            *votes.entry(c).or_default() += 1;
        }
    }
    // Sorted cluster order: response bytes must not depend on hash-map
    // iteration order (R4).
    let mut ordered_votes: Vec<(u32, usize)> = votes.into_iter().collect();
    ordered_votes.sort_unstable_by_key(|&(c, _)| c);
    ordered_votes
        .into_iter()
        .map(|(c, v)| {
            let label = cluster_label(&labels[&c]);
            LinkCandidate {
                uri: jocl_uri::<F>(c, &label),
                label,
                confidence: v as f64 / sizes[&c] as f64,
                support: v,
                cluster_size: sizes[&c],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Wire serialization — the ONE path every plane uses.
// ---------------------------------------------------------------------

fn opt_id(id: Option<u32>) -> String {
    id.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn parse_opt_id(s: &str, what: &str) -> Result<Option<u32>, WireError> {
    if s == "-" {
        return Ok(None);
    }
    s.parse().map(Some).map_err(|_| {
        WireError::new(ErrCode::Parse, format!("bad {what} field {s:?} in a query.v1 frame"))
    })
}

/// Serialize a `query` answer (`query.v1` — see the module docs for the
/// field order contract).
pub fn format_query(phrase: &str, reports: &[MentionReport]) -> Vec<String> {
    let mut lines = vec![format!("query.v1 matches={} {phrase}", reports.len())];
    for r in reports {
        lines.push(format!(
            "mention #{} {} cluster={} entity={} relation={} {:?} {:?}",
            r.triple.0,
            r.role,
            r.cluster_size,
            opt_id(r.entity.map(|e| e.0)),
            opt_id(r.relation.map(|x| x.0)),
            r.phrase,
            r.cluster_phrases,
        ));
    }
    lines
}

/// The fixed-prefix fields of one parsed `query.v1` mention line (the
/// trailing phrase/cluster-phrase text is kept raw in `detail`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedMention {
    /// Owning triple id.
    pub triple: u32,
    /// Mention role.
    pub role: String,
    /// Live cluster size.
    pub cluster_size: usize,
    /// Linked entity id.
    pub entity: Option<u32>,
    /// Linked relation id.
    pub relation: Option<u32>,
    /// The human tail: quoted phrase + cluster phrase list.
    pub detail: String,
}

/// A parsed `query.v1` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedQuery {
    /// Echoed phrase.
    pub phrase: String,
    /// One row per matching live mention.
    pub mentions: Vec<ParsedMention>,
}

/// Parse a `query.v1` frame (client side). Every malformed variant is a
/// typed [`ErrCode::Parse`] error.
pub fn parse_query(lines: &[String]) -> Result<ParsedQuery, WireError> {
    let bad = |msg: String| WireError::new(ErrCode::Parse, msg);
    let header = lines.first().ok_or_else(|| bad("empty query frame".into()))?;
    let rest = header
        .strip_prefix("query.v1 ")
        .ok_or_else(|| bad(format!("not a query.v1 frame: {header:?}")))?;
    let (matches, phrase) = rest.split_once(' ').unwrap_or((rest, ""));
    let matches: usize = matches
        .strip_prefix("matches=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad(format!("query.v1 header needs matches=<n>, got {header:?}")))?;
    if lines.len() != matches + 1 {
        return Err(bad(format!(
            "query.v1 frame announces {matches} mentions but carries {}",
            lines.len() - 1
        )));
    }
    let mut mentions = Vec::with_capacity(matches);
    for line in &lines[1..] {
        let mut f = line.splitn(7, ' ');
        let fields: Vec<&str> = (&mut f).take(6).collect();
        let detail = f.next().unwrap_or("").to_string();
        let [marker, triple, role, cluster, entity, relation] = fields.as_slice() else {
            return Err(bad(format!("truncated query.v1 mention line {line:?}")));
        };
        if *marker != "mention" {
            return Err(bad(format!("query.v1 mention line must start 'mention', got {line:?}")));
        }
        let triple: u32 = triple
            .strip_prefix('#')
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(format!("bad triple field {triple:?} in a query.v1 frame")))?;
        if !matches!(*role, "subject" | "object" | "predicate") {
            return Err(bad(format!("bad role {role:?} in a query.v1 frame")));
        }
        let cluster_size: usize = cluster
            .strip_prefix("cluster=")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad(format!("bad cluster field {cluster:?} in a query.v1 frame")))?;
        let entity = parse_opt_id(
            entity
                .strip_prefix("entity=")
                .ok_or_else(|| bad(format!("bad entity field {entity:?} in a query.v1 frame")))?,
            "entity",
        )?;
        let relation = parse_opt_id(
            relation.strip_prefix("relation=").ok_or_else(|| {
                bad(format!("bad relation field {relation:?} in a query.v1 frame"))
            })?,
            "relation",
        )?;
        mentions.push(ParsedMention {
            triple,
            role: (*role).to_string(),
            cluster_size,
            entity,
            relation,
            detail,
        });
    }
    Ok(ParsedQuery { phrase: phrase.to_string(), mentions })
}

/// Serialize a `link` answer (`link.v1` — see the module docs for the
/// field order contract).
pub fn format_link(report: &LinkReport) -> Vec<String> {
    let mut lines = Vec::with_capacity(1 + report.np.len() + report.rp.len());
    lines.push(format!("link.v1 np={} rp={} {}", report.np.len(), report.rp.len(), report.target));
    for (family, cands) in [("np", &report.np), ("rp", &report.rp)] {
        for c in cands {
            let label = if c.label.is_empty() { "?" } else { &c.label };
            lines.push(format!(
                "{family} {} {} {} {} {label}",
                c.uri, c.confidence, c.support, c.cluster_size
            ));
        }
    }
    lines
}

/// Parse a `link.v1` frame (client side). Every malformed variant is a
/// typed [`ErrCode::Parse`] error; confidences round-trip bit for bit.
pub fn parse_link(lines: &[String]) -> Result<LinkReport, WireError> {
    let bad = |msg: String| WireError::new(ErrCode::Parse, msg);
    let header = lines.first().ok_or_else(|| bad("empty link frame".into()))?;
    let rest = header
        .strip_prefix("link.v1 ")
        .ok_or_else(|| bad(format!("not a link.v1 frame: {header:?}")))?;
    let mut parts = rest.splitn(3, ' ');
    let counts: Vec<usize> = [("np=", parts.next()), ("rp=", parts.next())]
        .into_iter()
        .map(|(key, tok)| {
            tok.and_then(|t| t.strip_prefix(key))
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| bad(format!("link.v1 header needs np=<n> rp=<m>, got {header:?}")))
        })
        .collect::<Result<_, _>>()?;
    let target = parts.next().unwrap_or("").to_string();
    if target.is_empty() {
        return Err(bad(format!("link.v1 header is missing the target: {header:?}")));
    }
    let (n_np, n_rp) = (counts[0], counts[1]);
    if lines.len() != 1 + n_np + n_rp {
        return Err(bad(format!(
            "link.v1 frame announces {} candidates but carries {}",
            n_np + n_rp,
            lines.len() - 1
        )));
    }
    let parse_cand = |line: &String, family: &str| -> Result<LinkCandidate, WireError> {
        let mut f = line.splitn(6, ' ');
        let fields: Vec<&str> = (&mut f).take(5).collect();
        let label = f.next().unwrap_or("").to_string();
        let [marker, uri, confidence, support, cluster_size] = fields.as_slice() else {
            return Err(bad(format!("truncated link.v1 candidate line {line:?}")));
        };
        if *marker != family {
            return Err(bad(format!(
                "link.v1 candidate line out of order: expected {family:?}, got {line:?}"
            )));
        }
        let confidence: f64 = confidence
            .parse()
            .map_err(|_| bad(format!("bad confidence {confidence:?} in a link.v1 frame")))?;
        if !(0.0..=1.0).contains(&confidence) {
            return Err(bad(format!("confidence {confidence} out of [0, 1] in a link.v1 frame")));
        }
        let support: usize = support
            .parse()
            .map_err(|_| bad(format!("bad support {support:?} in a link.v1 frame")))?;
        let cluster_size: usize = cluster_size
            .parse()
            .map_err(|_| bad(format!("bad cluster size {cluster_size:?} in a link.v1 frame")))?;
        if label.is_empty() {
            return Err(bad(format!("link.v1 candidate line is missing the label: {line:?}")));
        }
        Ok(LinkCandidate { uri: (*uri).to_string(), label, confidence, support, cluster_size })
    };
    let np = lines[1..1 + n_np].iter().map(|l| parse_cand(l, "np")).collect::<Result<_, _>>()?;
    let rp = lines[1 + n_np..].iter().map(|l| parse_cand(l, "rp")).collect::<Result<_, _>>()?;
    Ok(LinkReport { target, np, rp })
}

/// Serialize the `stats` answer (`stats.v1` — one line, fixed field
/// order; see the module docs). The density uses `f64`'s
/// shortest-roundtrip `Display`, so [`parse_stats`] reproduces the
/// server's float bit for bit.
pub fn format_stats(s: &SessionStats) -> String {
    format!(
        "stats.v1 triples={} live={} vars={} factors={} density={} ops={} compactions={} msg={} \
         heap_bytes={} version={} plane={} uptime_ms={} requests={} errors={} \
         last_compaction_ms={}",
        s.triples,
        s.live,
        s.vars,
        s.factors,
        s.tombstone_density,
        s.ops_applied,
        s.compactions,
        s.total_message_updates,
        s.heap_bytes,
        s.version,
        if s.replica { "replica" } else { "writer" },
        s.uptime_ms,
        s.requests,
        s.errors,
        s.last_compaction_ms,
    )
}

/// Parse a `stats.v1` line (client side). Every malformed variant is a
/// typed [`ErrCode::Parse`] error; a parsed line reproduces the
/// server's [`SessionStats`] exactly.
pub fn parse_stats(line: &str) -> Result<SessionStats, WireError> {
    let bad = |msg: String| WireError::new(ErrCode::Parse, msg);
    let rest = line
        .trim()
        .strip_prefix("stats.v1 ")
        .ok_or_else(|| bad(format!("not a stats.v1 line: {line:?}")))?;
    let mut fields = rest.split_whitespace();
    let mut field = |key: &str| -> Result<&str, WireError> {
        fields
            .next()
            .and_then(|tok| tok.strip_prefix(key))
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| bad(format!("stats.v1 line is missing {key}=<v>: {line:?}")))
    };
    fn num<T: std::str::FromStr>(s: &str, key: &str, line: &str) -> Result<T, WireError> {
        s.parse().map_err(|_| {
            WireError::new(ErrCode::Parse, format!("bad {key} field {s:?} in {line:?}"))
        })
    }
    let stats = SessionStats {
        triples: num(field("triples")?, "triples", line)?,
        live: num(field("live")?, "live", line)?,
        vars: num(field("vars")?, "vars", line)?,
        factors: num(field("factors")?, "factors", line)?,
        tombstone_density: num(field("density")?, "density", line)?,
        ops_applied: num(field("ops")?, "ops", line)?,
        compactions: num(field("compactions")?, "compactions", line)?,
        total_message_updates: num(field("msg")?, "msg", line)?,
        heap_bytes: num(field("heap_bytes")?, "heap_bytes", line)?,
        version: num(field("version")?, "version", line)?,
        replica: match field("plane")? {
            "writer" => false,
            "replica" => true,
            other => return Err(bad(format!("bad plane field {other:?} in {line:?}"))),
        },
        uptime_ms: num(field("uptime_ms")?, "uptime_ms", line)?,
        requests: num(field("requests")?, "requests", line)?,
        errors: num(field("errors")?, "errors", line)?,
        last_compaction_ms: num(field("last_compaction_ms")?, "last_compaction_ms", line)?,
    };
    if let Some(extra) = fields.next() {
        return Err(bad(format!("trailing field {extra:?} in a stats.v1 line")));
    }
    Ok(stats)
}

/// `name` or `name{labels}` with `suffix` appended to the bare name
/// (histogram series derive `_bucket`/`_count`/`_sum` keys this way).
fn suffix_key(key: &str, suffix: &str) -> String {
    match key.find('{') {
        Some(pos) => format!("{}{}{}", &key[..pos], suffix, &key[pos..]),
        None => format!("{key}{suffix}"),
    }
}

/// A histogram bucket key: the `_bucket` series with `le="…"` appended
/// to the label set (after the sorted registry labels).
fn bucket_key(key: &str, le: &str) -> String {
    let base = suffix_key(key, "_bucket");
    match base.strip_suffix('}') {
        Some(open) => format!("{open},le=\"{le}\"}}"),
        None => format!("{base}{{le=\"{le}\"}}"),
    }
}

/// Serialize a registry snapshot (`metrics.v1` — see the module docs
/// for the grammar and the byte-stability contract).
pub fn format_metrics(snap: &MetricsSnapshot) -> Vec<String> {
    let mut lines = Vec::with_capacity(snap.entries.len() + 1);
    for (key, value) in &snap.entries {
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => lines.push(format!("{key} {v}")),
            MetricValue::Histogram(h) => {
                // Finite bounds up to the last occupied one, elided
                // past it; the +Inf bucket (cumulative == count by
                // construction) always closes the series.
                let finite = &h.buckets[..h.buckets.len() - 1];
                let mut cumulative = 0u64;
                if let Some(last) = finite.iter().rposition(|&c| c != 0) {
                    for (i, &count) in finite.iter().enumerate().take(last + 1) {
                        cumulative += count;
                        let le = jocl_obs::metrics::bucket_le(i)
                            .expect("finite buckets have finite bounds")
                            .to_string();
                        lines.push(format!("{} {cumulative}", bucket_key(key, &le)));
                    }
                }
                lines.push(format!("{} {}", bucket_key(key, "+Inf"), h.count));
                lines.push(format!("{} {}", suffix_key(key, "_count"), h.count));
                lines.push(format!("{} {}", suffix_key(key, "_sum"), h.sum));
            }
        }
    }
    let mut out = Vec::with_capacity(lines.len() + 1);
    out.push(format!("metrics.v1 entries={}", lines.len()));
    out.extend(lines);
    out
}

/// Parse a `metrics.v1` frame (client side) into `(series_key, value)`
/// rows. Every malformed variant is a typed [`ErrCode::Parse`] error.
pub fn parse_metrics(lines: &[String]) -> Result<Vec<(String, u64)>, WireError> {
    let bad = |msg: String| WireError::new(ErrCode::Parse, msg);
    let header = lines.first().ok_or_else(|| bad("empty metrics frame".into()))?;
    let entries: usize = header
        .strip_prefix("metrics.v1 ")
        .and_then(|rest| rest.strip_prefix("entries="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad(format!("not a metrics.v1 header: {header:?}")))?;
    if lines.len() != entries + 1 {
        return Err(bad(format!(
            "metrics.v1 frame announces {entries} series but carries {}",
            lines.len() - 1
        )));
    }
    lines[1..]
        .iter()
        .map(|line| {
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| bad(format!("metrics.v1 series line needs a value: {line:?}")))?;
            let value: u64 = value
                .parse()
                .map_err(|_| bad(format!("bad value {value:?} in a metrics.v1 frame")))?;
            if key.is_empty() {
                return Err(bad(format!("metrics.v1 series line has no key: {line:?}")));
            }
            Ok((key.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_targets_parse_and_display() {
        assert_eq!(parse_link_target("UMD").unwrap(), LinkTarget::Surface("UMD".into()));
        assert_eq!(
            parse_link_target("  the terps  ").unwrap(),
            LinkTarget::Surface("the terps".into())
        );
        assert_eq!(parse_link_target("jocl://np/3").unwrap(), LinkTarget::NpCluster(3));
        assert_eq!(parse_link_target("jocl://np/3/umd").unwrap(), LinkTarget::NpCluster(3));
        assert_eq!(parse_link_target("jocl://rp/0/be-part-of").unwrap(), LinkTarget::RpCluster(0));
        assert_eq!(parse_link_target("ckb://entity/17/x").unwrap(), LinkTarget::Entity(17));
        assert_eq!(parse_link_target("ckb://relation/2").unwrap(), LinkTarget::Relation(2));
        assert_eq!(LinkTarget::NpCluster(3).to_string(), "jocl://np/3");
        assert_eq!(LinkTarget::Surface("UMD".into()).to_string(), "UMD");
    }

    #[test]
    fn malformed_link_targets_are_typed_errors() {
        for bad in [
            "",
            "   ",
            "jocl://np",
            "jocl://np/",
            "jocl://np/banana",
            "jocl://banana/3",
            "ckb://entity/-1",
            "ckb://cluster/3",
            "http://example.com/3",
        ] {
            let e = parse_link_target(bad).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{bad:?} -> {e:?}");
        }
    }

    #[test]
    fn slugs_are_sanitized_and_bounded() {
        assert_eq!(slug("University of Maryland"), "university-of-maryland");
        assert_eq!(slug("  A/B  (c) "), "a-b-c");
        assert_eq!(slug("!!!"), "x");
        assert!(slug(&"long phrase ".repeat(20)).len() <= 32);
    }

    fn sample_report() -> LinkReport {
        LinkReport {
            target: "the university".to_string(),
            np: vec![
                LinkCandidate {
                    uri: "jocl://np/3/university-of-maryland".into(),
                    label: "university of maryland".into(),
                    confidence: 2.0 / 3.0,
                    support: 2,
                    cluster_size: 4,
                },
                LinkCandidate {
                    uri: "ckb://entity/17/university-of-maryland".into(),
                    label: "university of maryland".into(),
                    confidence: 0.85,
                    support: 0,
                    cluster_size: 0,
                },
            ],
            rp: vec![LinkCandidate {
                uri: "jocl://rp/1/be-part-of".into(),
                label: "be part of".into(),
                confidence: 1.0,
                support: 1,
                cluster_size: 1,
            }],
        }
    }

    #[test]
    fn link_frames_roundtrip_bit_for_bit() {
        let report = sample_report();
        let lines = format_link(&report);
        assert_eq!(lines[0], "link.v1 np=2 rp=1 the university");
        assert_eq!(parse_link(&lines).unwrap(), report, "shortest-roundtrip floats are exact");
        let empty = LinkReport { target: "jocl://np/999".into(), np: vec![], rp: vec![] };
        assert_eq!(parse_link(&format_link(&empty)).unwrap(), empty);
    }

    #[test]
    fn malformed_link_frames_are_typed_errors() {
        let ok = format_link(&sample_report());
        let mutate = |f: &dyn Fn(&mut Vec<String>)| {
            let mut lines = ok.clone();
            f(&mut lines);
            let e = parse_link(&lines).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{lines:?} -> {e:?}");
        };
        mutate(&|l| l.clear()); // empty frame
        mutate(&|l| l[0] = "link.v2 np=2 rp=1 x".into()); // wrong version
        mutate(&|l| l[0] = "link.v1 np=two rp=1 x".into()); // bad count
        mutate(&|l| l[0] = "link.v1 np=2 rp=1".into()); // missing target
        mutate(&|l| l[0] = "link.v1 rp=1 np=2 x".into()); // reordered fields
        mutate(&|l| {
            l.pop();
        }); // fewer lines than announced
        mutate(&|l| l.push("rp jocl://rp/2/x 0.5 1 1 x".into())); // more lines
        mutate(&|l| l[1] = "np jocl://np/3/u nan 2 4 u".into()); // bad confidence
        mutate(&|l| l[1] = "np jocl://np/3/u 1.5 2 4 u".into()); // out of range
        mutate(&|l| l[1] = "np jocl://np/3/u 0.5 two 4 u".into()); // bad support
        mutate(&|l| l[1] = "np jocl://np/3/u 0.5 2 4".into()); // missing label
        mutate(&|l| l[1] = "rp jocl://np/3/u 0.5 2 4 u".into()); // family out of order
    }

    #[test]
    fn query_frames_roundtrip_their_fixed_fields() {
        let reports = vec![
            MentionReport {
                triple: TripleId(4),
                role: "subject",
                phrase: "UMD".into(),
                cluster_size: 3,
                cluster_phrases: vec!["UMD".into(), "the university of maryland".into()],
                entity: Some(EntityId(17)),
                relation: None,
            },
            MentionReport {
                triple: TripleId(9),
                role: "predicate",
                phrase: "be part of".into(),
                cluster_size: 2,
                cluster_phrases: vec!["be part of".into()],
                entity: None,
                relation: Some(RelationId(2)),
            },
        ];
        let lines = format_query("umd", &reports);
        assert_eq!(lines[0], "query.v1 matches=2 umd");
        let parsed = parse_query(&lines).unwrap();
        assert_eq!(parsed.phrase, "umd");
        assert_eq!(parsed.mentions.len(), 2);
        assert_eq!(parsed.mentions[0].triple, 4);
        assert_eq!(parsed.mentions[0].role, "subject");
        assert_eq!(parsed.mentions[0].cluster_size, 3);
        assert_eq!(parsed.mentions[0].entity, Some(17));
        assert_eq!(parsed.mentions[0].relation, None);
        assert!(parsed.mentions[0].detail.contains("the university of maryland"));
        assert_eq!(parsed.mentions[1].relation, Some(2));
        let none = format_query("ghost", &[]);
        assert_eq!(none, vec!["query.v1 matches=0 ghost".to_string()]);
        assert!(parse_query(&none).unwrap().mentions.is_empty());
    }

    #[test]
    fn malformed_query_frames_are_typed_errors() {
        let bad_frames: Vec<Vec<String>> = vec![
            vec![],
            vec!["query.v2 matches=0 x".into()],
            vec!["query.v1 x".into()],
            vec!["query.v1 matches=two x".into()],
            vec!["query.v1 matches=1 x".into()], // fewer mention lines than announced
            vec!["query.v1 matches=0 x".into(), "mention #1 subject".into()],
            vec![
                "query.v1 matches=1 x".into(),
                "mention 1 subject cluster=2 entity=- relation=- \"x\" []".into(), // missing '#'
            ],
            vec![
                "query.v1 matches=1 x".into(),
                "mention #1 verb cluster=2 entity=- relation=- \"x\" []".into(), // bad role
            ],
            vec![
                "query.v1 matches=1 x".into(),
                "mention #1 subject cluster=big entity=- relation=- \"x\" []".into(),
            ],
            vec![
                "query.v1 matches=1 x".into(),
                "mention #1 subject cluster=2 entity=e relation=- \"x\" []".into(),
            ],
            vec![
                "query.v1 matches=1 x".into(),
                "mention #1 subject entity=- cluster=2 relation=- \"x\" []".into(), // reordered
            ],
        ];
        for frame in bad_frames {
            let e = parse_query(&frame).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{frame:?} -> {e:?}");
        }
    }

    fn sample_stats() -> SessionStats {
        SessionStats {
            triples: 21,
            live: 19,
            vars: 40,
            factors: 77,
            tombstone_density: 0.096_774_193_548_387_1,
            ops_applied: 9,
            compactions: 1,
            total_message_updates: 123_456,
            version: 7,
            replica: false,
            heap_bytes: 1_234_567,
            uptime_ms: 98_765,
            requests: 42,
            errors: 3,
            last_compaction_ms: 12,
        }
    }

    /// One-path discipline, same as `query.v1`/`link.v1`: the client
    /// parser reproduces the server struct exactly — the f64 density
    /// included, via shortest-roundtrip `Display`.
    #[test]
    fn stats_frames_roundtrip_bit_for_bit() {
        let stats = sample_stats();
        let line = format_stats(&stats);
        assert!(line.starts_with("stats.v1 triples=21 live=19 "), "{line}");
        assert_eq!(parse_stats(&line).unwrap(), stats);

        let replica = SessionStats { replica: true, ..stats };
        let line = format_stats(&replica);
        assert!(line.contains("plane=replica"), "{line}");
        assert_eq!(parse_stats(&line).unwrap(), replica);
    }

    #[test]
    fn malformed_stats_lines_are_typed_errors() {
        let good = format_stats(&sample_stats());
        let bad_lines: Vec<String> = vec![
            String::new(),
            "stats.v2 triples=1".into(),
            good.replacen("stats.v1 ", "", 1), // no version tag
            good.replacen("triples=", "triple=", 1), // wrong key
            good.replacen("triples=21", "triples=x", 1), // non-numeric
            good.replacen("density=", "density=not", 1), // bad f64
            good.replacen("plane=writer", "plane=cache", 1), // unknown plane
            good.replacen(" live=19", "", 1),  // missing field
            format!("{good} extra=1"),         // trailing field
            good.replacen(" uptime_ms=", " requests=0 uptime_ms=", 1), // reordered/extra
        ];
        for line in bad_lines {
            let e = parse_stats(&line).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{line:?} -> {e:?}");
        }
    }

    fn sample_metrics_snapshot() -> MetricsSnapshot {
        let mut hist = jocl_obs::HistogramSnapshot {
            buckets: [0; jocl_obs::metrics::BUCKETS],
            count: 7,
            sum: 74,
        };
        hist.buckets[0] = 3; // values ≤ 1
        hist.buckets[3] = 3; // values in (4, 8]
        hist.buckets[jocl_obs::metrics::BUCKETS - 1] = 1; // overflow
        MetricsSnapshot {
            entries: vec![
                ("jocl_err_total{code=\"parse\",plane=\"writer\"}".into(), MetricValue::Counter(2)),
                ("jocl_net_active_connections".into(), MetricValue::Gauge(4)),
                (
                    "jocl_request_ns{cmd=\"query\",plane=\"writer\"}".into(),
                    MetricValue::Histogram(Box::new(hist)),
                ),
            ],
        }
    }

    /// The `metrics.v1` grammar: a counted header, `key value` series
    /// lines, histograms as cumulative finite buckets (elided past the
    /// last occupied) closed by `+Inf` == `_count`, then `_sum` — with
    /// the suffix inserted before the label set.
    #[test]
    fn metrics_frames_expose_histograms_cumulatively_and_roundtrip() {
        let frame = format_metrics(&sample_metrics_snapshot());
        let expected = vec![
            "metrics.v1 entries=9".to_string(),
            "jocl_err_total{code=\"parse\",plane=\"writer\"} 2".into(),
            "jocl_net_active_connections 4".into(),
            "jocl_request_ns_bucket{cmd=\"query\",plane=\"writer\",le=\"1\"} 3".into(),
            "jocl_request_ns_bucket{cmd=\"query\",plane=\"writer\",le=\"2\"} 3".into(),
            "jocl_request_ns_bucket{cmd=\"query\",plane=\"writer\",le=\"4\"} 3".into(),
            "jocl_request_ns_bucket{cmd=\"query\",plane=\"writer\",le=\"8\"} 6".into(),
            "jocl_request_ns_bucket{cmd=\"query\",plane=\"writer\",le=\"+Inf\"} 7".into(),
            "jocl_request_ns_count{cmd=\"query\",plane=\"writer\"} 7".into(),
            "jocl_request_ns_sum{cmd=\"query\",plane=\"writer\"} 74".into(),
        ];
        assert_eq!(frame, expected);
        let parsed = parse_metrics(&frame).unwrap();
        assert_eq!(parsed.len(), 9);
        assert_eq!(parsed[0], ("jocl_err_total{code=\"parse\",plane=\"writer\"}".to_string(), 2));
        assert_eq!(
            parsed[8],
            ("jocl_request_ns_sum{cmd=\"query\",plane=\"writer\"}".to_string(), 74)
        );

        // An empty histogram still closes its series: +Inf, _count, _sum.
        let empty = MetricsSnapshot {
            entries: vec![(
                "jocl_blocking_ns".into(),
                MetricValue::Histogram(Box::new(jocl_obs::HistogramSnapshot {
                    buckets: [0; jocl_obs::metrics::BUCKETS],
                    count: 0,
                    sum: 0,
                })),
            )],
        };
        assert_eq!(
            format_metrics(&empty),
            vec![
                "metrics.v1 entries=3".to_string(),
                "jocl_blocking_ns_bucket{le=\"+Inf\"} 0".into(),
                "jocl_blocking_ns_count 0".into(),
                "jocl_blocking_ns_sum 0".into(),
            ]
        );
    }

    #[test]
    fn malformed_metrics_frames_are_typed_errors() {
        let bad_frames: Vec<Vec<String>> = vec![
            vec![],
            vec!["metrics.v2 entries=0".into()],
            vec!["metrics.v1 entries=two".into()],
            vec!["metrics.v1 entries=2".into(), "jocl_x 1".into()], // count mismatch
            vec!["metrics.v1 entries=1".into(), "jocl_x".into()],   // no value
            vec!["metrics.v1 entries=1".into(), "jocl_x one".into()], // bad value
            vec!["metrics.v1 entries=1".into(), " 1".into()],       // no key
        ];
        for frame in bad_frames {
            let e = parse_metrics(&frame).unwrap_err();
            assert_eq!(e.code, ErrCode::Parse, "{frame:?} -> {e:?}");
        }
    }
}
