//! Incremental delta ingestion: warm-started canonicalization for
//! streaming OKB triples.
//!
//! The batch pipeline (`crate::pipeline`) treats canonicalization as a
//! one-shot snapshot job: blocking, graph construction and LBP all start
//! from nothing on every run. A serving deployment sees OIE triples
//! *arrive*, and re-running the whole stack per arrival throws away the
//! one thing the previous run paid for — a converged factor graph.
//!
//! [`IncrementalJocl`] is the session object that keeps it. It owns the
//! growing [`Okb`], the append-only [`BlockingIndex`], the live
//! [`GraphPlan`] (whose factor graph also owns the edge index LBP runs
//! over), the resident LBP state ([`LbpState`]: messages and residual
//! queue) and the cached marginals, and exposes one
//! operation: [`IncrementalJocl::apply_delta`]. A delta
//!
//! 1. **ingests** its triples idempotently (`Okb::ingest_triple`:
//!    re-delivered triples are no-ops, not duplicate evidence);
//! 2. **extends blocking** through `BlockingIndex::append_triple`, which
//!    emits exactly the new pairs — the pair set is a monotone function
//!    of the arrival sequence, so batch and incremental blocking agree
//!    by construction;
//! 3. **appends** the new linking/pair variables and their F1–F6, U1–U7
//!    factors through the one graph-construction path,
//!    `builder::GraphBuilder::extend` — the same pass that
//!    [`crate::build_graph`] runs once over a whole OKB. Ids and adjacency
//!    of existing nodes are never disturbed, and the builder's
//!    per-distinct-key caches and triangle indexes persist across deltas;
//! 4. **warm-starts LBP** via [`LbpEngine::resume`] on the state the
//!    previous delta left resident: the state grows by the appended
//!    edges (uniform messages, [`LbpEngine::with_state`]) and only the
//!    *dirty* factor blocks — the ones this delta appended — are primed
//!    into the residual queue, so convergence work, and the set-up
//!    around it, is proportional to how far the delta's influence
//!    actually reaches, not to the graph size. Messages do not
//!    round-trip through an export per delta. Sessions run the residual
//!    schedule only (`JoclConfig::lbp.mode` must be
//!    `ScheduleMode::Residual`, the default); the synchronous sweeps are
//!    the batch reference oracle;
//! 5. **re-decodes** with marginals refreshed only for the variables
//!    whose incoming messages the run (or a reset, or growth) wrote, plus
//!    new variables ([`LbpEngine::refresh_marginals`]); every other
//!    message kept its bits, so every other cached marginal is exactly
//!    what a recompute would give. Decode borrows the cached marginals.
//!    A growing [`UnionFind`] over variables still reports how many
//!    connected components a delta touched
//!    ([`DeltaStats::affected_components`]).
//!
//! The parity target: N deltas followed by convergence should decode
//! like a from-scratch batch run on the union (same frozen [`Signals`],
//! same config). It is measured, not guaranteed:
//!
//! * a warm start resumes from the previous fixed point, and LBP on a
//!   loopy graph can have several, so a streamed session can settle on
//!   another fixed point than the cold batch run reaches;
//! * arrival order fixes node ids, and ids break ties (the residual
//!   queue's pop order, decode), so the same triples in another order
//!   can decode differently;
//! * `tests/incremental.rs` (the figure 1 replay, seeded small worlds)
//!   and the `jocl_bench` stream gate (scale 0.02, seed 42, 4 batches)
//!   pin worlds that do decode identically. Worlds that do not are
//!   failing `#[ignore]` tests in `crates/bench/tests/parity_gaps.rs`
//!   (`cargo test -p jocl_bench --release --test parity_gaps --
//!   --ignored`); the `stream` bin reproduces one, printing
//!   `PARITY MISMATCH` and exiting 1:
//!   `JOCL_SCALE=0.06 JOCL_SEED=42 JOCL_STREAM_BATCH=4 cargo run
//!   --release -p jocl_bench --bin stream`.
//!
//! Signals are a session resource: IDF, SGNS, AMIE and friends are
//! built once (offline or at session start) and frozen, exactly like
//! `JoclConfig::pretrained_params` weights in serving mode.
//!
//! On top of that, parity needs the
//! `JoclConfig::max_triangles` budget is not exhausted. The budget is a
//! global cap spent in build order, and a streamed build necessarily
//! spends it in arrival order while a batch build spends it in
//! family-sorted order — once it runs out, the two keep *different*
//! U1–U3 triangle subsets. [`DeltaStats::triangle_budget_exhausted`]
//! reports when a session crosses that line; raise the budget (or treat
//! the session as approximate from then on) if exact batch parity
//! matters.
//!
//! Training is deliberately out of scope per delta: learn weights
//! offline with the batch pipeline, persist them with
//! `crate::persist::save_params`, and hand them to the session through
//! `JoclConfig::pretrained_params`.
//!
//! ## Retraction and revision (serving deltas)
//!
//! Real OIE feeds do not only append: sources retract triples and
//! correct them. [`IncrementalJocl::apply_ops`] generalizes the delta to
//! [`DeltaOp::Add`] / [`DeltaOp::Retract`] / [`DeltaOp::Revise`] while
//! keeping the factor graph **append-only physically**: a retracted
//! triple's mention and pair variables stay in the graph, but every
//! factor touching one of them is *tombstoned*
//! ([`jocl_fg::FactorGraph::neutralize_factor`] — its potential becomes
//! identically zero in the log domain), its messages are reset to
//! uniform, and the tombstones plus their live neighbor factors are
//! primed into the warm start. The graph therefore **shrinks
//! semantically** — at the fixed point the live slice of the model is
//! the model a batch build on the surviving triples would produce — and
//! [`crate::decode::decode_live`] masks the dead mentions out of the
//! output. A revision is a retract + add sharing one warm start, and a
//! re-add of previously retracted content mints a fresh triple id (the
//! OKB dedup entry is forgotten on retraction) with fresh variables.
//!
//! Tombstones accumulate; [`IncrementalJocl::tombstone_density`] reports
//! the dead-factor fraction and [`IncrementalJocl::compact`] rebuilds
//! the session cold from the survivors (the serving wrapper
//! `jocl_serve` triggers this automatically past a configured
//! threshold).
//!
//! **Parity contract with retraction**: after any interleaving of
//! add/retract/revise deltas, the live decode equals a from-scratch
//! batch run on the surviving triples (in original arrival order) —
//! with two documented caveats on top of the triangle-budget one above.
//! First, the blocking caps (`max_group_clique`, `cross_cap`, the
//! token-DF hub cutoff) are consumed at *arrival time*, so a retracted
//! triple that occupied a cap slot can leave the session without a
//! survivor-survivor pair the reference run would have formed; parity
//! is exact while the caps do not bind (raise them when exact parity
//! matters — retracting recent arrivals, the common serving case, never
//! trips this because caps were consumed by the *prefix* both runs
//! share). Second, as everywhere in the warm path, touched regions
//! re-converge to within `lbp.tol` of the reference fixed point, so
//! decode equality relies on no marginal sitting inside that band of a
//! decode threshold.
//!
//! ## Session persistence
//!
//! [`IncrementalJocl::export_state`] serializes the entire warm session
//! — OKB (including its dedup index), blocking index, factor graph,
//! parameters, messages, marginals, component tracker, live mask and
//! tombstones — through the `jocl_kb::snap` binary codec, and
//! [`IncrementalJocl::import_state`] rebuilds a session that resumes
//! with **bitwise-identical** messages: `snapshot → restart → delta`
//! decodes exactly like the uninterrupted session. The edge index is
//! the graph's, rebuilt as the snapshot's graph is replayed, and the
//! LBP state's queue is not persisted: the restored session's first
//! delta sizes a fresh state to the graph and decodes the messages
//! into it. Between runs the residual queue is empty and every priority
//! 0.0, so the restored and the resident state take the same
//! trajectory.
//!
//! Messages leave the resident state only through
//! [`LbpState::export_messages`] and come back through
//! [`LbpState::import_messages`]: for snapshots, and under
//! `MessageStore::Quantized` at every commit — the session encodes the
//! arenas, drops the `f64` copies and decodes them at the start of the
//! next delta, so only the quantized form stays resident between
//! deltas. The cached marginals of variables the next run does not touch
//! keep the values computed before quantization. The CKB, the frozen
//! [`Signals`] and the [`JoclConfig`] are *not* part of the state — they
//! are shared serving resources the restarting process supplies, and the
//! file-level wrapper in `jocl_serve` fingerprints the config to catch
//! mismatches.

use crate::blocking::{Blocking, BlockingIndex};
use crate::builder::{init_params, BuildInput, GraphBuilder, GraphPlan};
use crate::config::{paper_schedule, JoclConfig};
use crate::decode::{decode_live, Diagnostics, JoclOutput};
use crate::signals::Signals;
use jocl_cluster::UnionFind;
use jocl_fg::lbp::LbpEngine;
use jocl_fg::{FactorId, LbpMessages, LbpResult, LbpState, Marginals, MessageStore, VarId};
use jocl_kb::snap::{SnapReader, SnapWriter};
use jocl_kb::{Ckb, KbError, NpMention, NpSlot, Okb, RpMention, Triple, TripleId};
use jocl_text::fx::FxHashSet;

/// Cached handles for the incremental-engine metrics, registered once
/// so `apply_ops`/`compact` never touch the registry mutex. Purely
/// observational: nothing here feeds back into inference, so decode is
/// bitwise-identical with metrics on or off.
struct DeltaMetrics {
    apply_ops_ns: std::sync::Arc<jocl_obs::Histogram>,
    compaction_ns: std::sync::Arc<jocl_obs::Histogram>,
    compactions_total: std::sync::Arc<jocl_obs::Counter>,
    last_compaction_ms: std::sync::Arc<jocl_obs::Gauge>,
}

fn delta_metrics() -> &'static DeltaMetrics {
    static M: std::sync::OnceLock<DeltaMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| DeltaMetrics {
        apply_ops_ns: jocl_obs::registry().histogram("jocl_apply_ops_ns", &[]),
        compaction_ns: jocl_obs::registry().histogram("jocl_compaction_ns", &[]),
        compactions_total: jocl_obs::registry().counter("jocl_compactions_total", &[]),
        last_compaction_ms: jocl_obs::registry().gauge("jocl_last_compaction_ms", &[]),
    })
}

/// One serving-delta operation. Operations address triples by
/// **content** (the natural key of an OIE feed); ids are internal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Ingest a triple (idempotent: re-delivery of present content is a
    /// counted no-op).
    Add(Triple),
    /// Remove a triple's evidence from the model. Retracting content
    /// that is not (or no longer) present is a counted no-op.
    Retract(Triple),
    /// Correct a triple: retract `old` and add `new` under one warm
    /// start.
    Revise {
        /// The triple as previously delivered.
        old: Triple,
        /// Its corrected form.
        new: Triple,
    },
}

/// What one [`IncrementalJocl::apply_delta`] call did.
#[derive(Debug, Clone)]
pub struct DeltaStats {
    /// Triples actually appended (fresh).
    pub appended: usize,
    /// Triples ignored because an identical triple was already present.
    pub duplicates: usize,
    /// Triples tombstoned by this delta's retract/revise ops.
    pub retracted: usize,
    /// Retract/revise ops whose `old` content was not present (no-ops).
    pub missed_retracts: usize,
    /// Revise ops applied (each also counts toward `appended` and/or
    /// `retracted`/`missed_retracts` as its halves land).
    pub revised: usize,
    /// Factors neutralized by this delta's retractions.
    pub tombstoned_factors: usize,
    /// Live (non-retracted) triples after the delta.
    pub live_triples: usize,
    /// Dead-factor fraction after the delta (the compaction trigger).
    pub tombstone_density: f64,
    /// Whether the serving wrapper compacted the session after this
    /// delta (always `false` from `apply_ops` itself).
    pub compacted: bool,
    /// New blocked pairs across the three families.
    pub new_pairs: usize,
    /// Variables appended to the factor graph.
    pub new_vars: usize,
    /// Factors appended to the factor graph.
    pub new_factors: usize,
    /// Connected components (of the variable graph) the delta touched.
    pub affected_components: usize,
    /// Total connected components after the delta.
    pub total_components: usize,
    /// Variables whose marginals were recomputed: those whose incoming
    /// messages this delta's run, resets or growth wrote, plus new
    /// variables — every variable after a cold or unconverged run. The
    /// rest were reused, bit for bit, from the previous decode.
    pub refreshed_vars: usize,
    /// True once the session's `max_triangles` budget has forced a
    /// transitivity triangle to be dropped — from that point exact
    /// decode parity with a batch build is no longer guaranteed (see
    /// the module docs). An exactly-consumed budget with nothing
    /// dropped keeps the flag false.
    pub triangle_budget_exhausted: bool,
    /// Whether LBP resumed from prior messages (false on the first
    /// non-trivial delta, which runs cold).
    pub warm_started: bool,
    /// The warm (or cold) LBP run of this delta.
    pub lbp: LbpResult,
}

/// Result of one delta: the full decoded output on the union so far,
/// plus what the delta cost.
#[derive(Debug, Clone)]
pub struct DeltaOutput {
    /// Decode over the *entire* session OKB (identical to a batch run on
    /// the union — see the module docs).
    pub output: JoclOutput,
    /// Incremental bookkeeping.
    pub stats: DeltaStats,
}

/// A persistent canonicalization + linking session over a streaming OKB.
///
/// Borrows the CKB and the frozen [`Signals`] (they are shared,
/// read-only serving resources); owns everything that grows. `Clone`
/// forks the whole warm state — benchmarks use this to replay one delta
/// against an identical warm session repeatedly.
#[derive(Clone)]
pub struct IncrementalJocl<'a> {
    config: JoclConfig,
    ckb: &'a Ckb,
    signals: &'a Signals,
    okb: Okb,
    blocking: BlockingIndex,
    plan: GraphPlan,
    /// LBP state over `plan.graph`, kept across deltas: residual queue
    /// and — unless `committed` holds them — the messages of the last
    /// run.
    lbp: LbpState,
    /// Messages that are not resident in `lbp`: a quantized session's
    /// commit between deltas, or a restored snapshot's messages until the
    /// next delta decodes them back in.
    committed: Option<LbpMessages>,
    /// Whether a delta has run LBP (the first one runs cold).
    warm: bool,
    /// Whether the last run actually converged. If it did not (e.g. the
    /// iteration budget ran out), the next delta re-primes **every**
    /// factor instead of just its own dirty set: the stale above-`tol`
    /// residuals the aborted drain left behind must re-enter the queue,
    /// or a later "converged" report would certify nothing.
    prior_converged: bool,
    /// Cached marginals per variable, refreshed per touched variable.
    marginals: Marginals,
    /// Connected components over variables (factors union their vars).
    components: UnionFind,
    /// Cross-delta build state: per-key caches, triangle indexes and the
    /// transitivity-triangle budget.
    builder: GraphBuilder,
    /// Liveness per triple id (`false` = retracted). Always sized to the
    /// OKB after a delta.
    live: Vec<bool>,
    /// Tombstoned (neutralized) factors, sized to the factor count.
    dead_factors: Vec<bool>,
    /// Count of `true` entries in `dead_factors`.
    num_dead_factors: usize,
    /// Count of retracted triples still physically present.
    num_dead_triples: usize,
    /// Message updates across the whole session (all deltas).
    pub total_message_updates: u64,
}

impl std::fmt::Debug for IncrementalJocl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalJocl")
            .field("triples", &self.okb.len())
            .field("live_triples", &self.num_live())
            .field("vars", &self.plan.graph.num_vars())
            .field("factors", &self.plan.graph.num_factors())
            .field("dead_factors", &self.num_dead_factors)
            .field("warm", &self.warm)
            .finish_non_exhaustive()
    }
}

impl<'a> IncrementalJocl<'a> {
    /// Open a session with an empty OKB.
    ///
    /// # Panics
    /// Panics if `config.lbp.schedule` is not [`paper_schedule`], if
    /// `config.lbp.mode` is not `ScheduleMode::Residual` (warm deltas run
    /// the residual drain only), or if `config.pretrained_params` is set
    /// with a shape that does not match `config.features` (stale weights
    /// must fail fast, exactly as in the batch serving path).
    pub fn new(config: JoclConfig, ckb: &'a Ckb, signals: &'a Signals) -> Self {
        assert_paper_schedule(&config);
        assert_residual_schedule(&config);
        let (params, groups) = init_params(&config);
        Self {
            blocking: BlockingIndex::new(&config),
            builder: GraphBuilder::new(&config),
            config,
            ckb,
            signals,
            okb: Okb::new(),
            plan: GraphPlan::empty(params, groups),
            lbp: LbpState::new(),
            committed: None,
            warm: false,
            prior_converged: true,
            marginals: Marginals::from_probs(Vec::new()),
            components: UnionFind::new(0),
            live: Vec::new(),
            dead_factors: Vec::new(),
            num_dead_factors: 0,
            num_dead_triples: 0,
            total_message_updates: 0,
        }
    }

    /// The session OKB (the union of all applied deltas, deduplicated).
    pub fn okb(&self) -> &Okb {
        &self.okb
    }

    /// The active configuration.
    pub fn config(&self) -> &JoclConfig {
        &self.config
    }

    /// The shared curated KB this session links against.
    pub fn ckb(&self) -> &'a Ckb {
        self.ckb
    }

    /// Triples currently in the session.
    pub fn len(&self) -> usize {
        self.okb.len()
    }

    /// True before any triple has been ingested.
    pub fn is_empty(&self) -> bool {
        self.okb.is_empty()
    }

    /// Ingest a batch of arriving triples, converge the factor graph
    /// against the warm state, and decode the union. See the module docs
    /// for the five stages. An empty or fully-duplicate delta is cheap:
    /// nothing is appended, LBP performs zero updates, and the previous
    /// decode is reproduced. Equivalent to [`IncrementalJocl::apply_ops`]
    /// with every triple wrapped in [`DeltaOp::Add`].
    pub fn apply_delta(&mut self, triples: &[Triple]) -> DeltaOutput {
        let ops: Vec<DeltaOp> = triples.iter().cloned().map(DeltaOp::Add).collect();
        self.apply_ops(&ops)
    }

    /// Apply one serving delta of add / retract / revise operations (in
    /// order), converge against the warm state, and decode the live
    /// triple set. See the module docs for append semantics and the
    /// retraction/tombstone semantics.
    pub fn apply_ops(&mut self, ops: &[DeltaOp]) -> DeltaOutput {
        let sw = jocl_obs::Stopwatch::start();
        let _span = jocl_obs::span!("apply_ops");
        let out = self.apply_ops_inner(ops);
        delta_metrics().apply_ops_ns.record(sw.ns());
        out
    }

    fn apply_ops_inner(&mut self, ops: &[DeltaOp]) -> DeltaOutput {
        // --- 1. sequential op scan: idempotent ingest + retraction ------
        let mut new_ids: Vec<TripleId> = Vec::new();
        let mut retracted_ids: Vec<TripleId> = Vec::new();
        let mut duplicates = 0usize;
        let mut missed_retracts = 0usize;
        let mut revised = 0usize;
        let ingest_span = jocl_obs::span!("ingest");
        let mut ingest_add = |okb: &mut Okb, t: &Triple, new_ids: &mut Vec<TripleId>| {
            let (id, fresh) = okb.ingest_triple(t.clone());
            if fresh {
                new_ids.push(id);
            } else {
                duplicates += 1;
            }
        };
        let mut ingest_retract =
            |okb: &mut Okb, t: &Triple, out: &mut Vec<TripleId>| match okb.find_triple(t) {
                Some(id) => {
                    okb.forget_triple(id);
                    out.push(id);
                }
                None => missed_retracts += 1,
            };
        for op in ops {
            match op {
                DeltaOp::Add(t) => ingest_add(&mut self.okb, t, &mut new_ids),
                DeltaOp::Retract(t) => ingest_retract(&mut self.okb, t, &mut retracted_ids),
                DeltaOp::Revise { old, new } => {
                    revised += 1;
                    ingest_retract(&mut self.okb, old, &mut retracted_ids);
                    ingest_add(&mut self.okb, new, &mut new_ids);
                }
            }
        }
        self.live.resize(self.okb.len(), true);
        for &id in &retracted_ids {
            self.live[id.idx()] = false;
        }
        self.num_dead_triples += retracted_ids.len();
        drop(ingest_span);

        // --- 2. incremental blocking -------------------------------------
        // Every fresh triple enters the blocking index (its id exists and
        // the index is the arrival log), but pairs with a tombstoned
        // endpoint are dropped before they can become variables: the
        // reference batch run on the survivors has no such pair either.
        let mut delta = Blocking::default();
        let blocking_span = jocl_obs::span!("blocking");
        for &id in &new_ids {
            delta.extend(self.blocking.append_triple(id, self.okb.triple(id), self.signals));
        }
        drop(blocking_span);
        for pairs in [&mut delta.subj_pairs, &mut delta.pred_pairs, &mut delta.obj_pairs] {
            pairs.retain(|&(a, b)| self.live[a.idx()] && self.live[b.idx()]);
            pairs.sort_unstable();
        }

        // --- 3. append-only graph growth + tombstoning -------------------
        // Triples both added and retracted within this delta never get
        // variables at all (the builder skips dead ids); the rest of the
        // fresh set does. Committed messages come back into the LBP state
        // first, over the graph they were committed on.
        self.materialize_messages();
        let first_new_var = self.plan.graph.num_vars();
        let first_new_factor = self.plan.graph.num_factors();
        let input = BuildInput {
            okb: &self.okb,
            ckb: self.ckb,
            signals: self.signals,
            config: &self.config,
            live: &self.live,
        };
        self.builder.extend(&mut self.plan, &input, &delta);
        let num_vars = self.plan.graph.num_vars();
        let num_factors = self.plan.graph.num_factors();
        self.dead_factors.resize(num_factors, false);

        self.components.grow(num_vars);
        for f in first_new_factor..num_factors {
            let vars = self.plan.graph.factor_vars(FactorId(f as u32));
            for w in vars.windows(2) {
                self.components.union(w[0].idx(), w[1].idx());
            }
        }

        // Neutralize every factor that carries a retracted triple's
        // evidence. Their messages are reset below so the warm start
        // lands them exactly on the neutral fixed point.
        let newly_dead = self.tombstone(&retracted_ids);
        self.num_dead_factors += newly_dead.len();

        // --- 4. warm-started inference -----------------------------------
        // After an unconverged run, prime the *whole* factor set: the
        // warm messages are still a better start than uniform, but only
        // a full priming lets an empty residual queue certify a global
        // fixed point again.
        let dirty: Vec<u32> = if self.prior_converged {
            let mut dirty: Vec<u32> = (first_new_factor as u32..num_factors as u32).collect();
            dirty.extend_from_slice(&newly_dead);
            // A tombstone's variables feed *live* neighbor factors whose
            // inputs just changed (the retracted evidence vanished);
            // prime them so the change propagates outward.
            for &f in &newly_dead {
                for &v in self.plan.graph.factor_vars(FactorId(f)) {
                    for (g, _) in self.plan.graph.var_factors(v) {
                        if !self.dead_factors[g.idx()] {
                            dirty.push(g.0);
                        }
                    }
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        } else {
            (0..num_factors as u32).collect()
        };
        let warm_started = self.warm;
        // A delta that neither grew nor tombstoned anything leaves the
        // converged messages the fixed point: skip inference entirely.
        let graph_unchanged = warm_started && dirty.is_empty();
        let mut engine = LbpEngine::with_state(&self.plan.graph, std::mem::take(&mut self.lbp));
        let lbp = if graph_unchanged {
            LbpResult { iterations: 0, converged: true, residual: 0.0, message_updates: 0 }
        } else if warm_started {
            engine.reset_factor_messages(&newly_dead);
            engine.resume(&self.plan.params, &self.config.lbp, &dirty)
        } else {
            engine.run(&self.plan.params, &self.config.lbp)
        };
        self.total_message_updates += lbp.message_updates;

        // Components this delta touched (after the unions above, a new
        // factor bridging two old components reaches both).
        let mut affected: FxHashSet<usize> = FxHashSet::default();
        for &f in &dirty {
            for &v in self.plan.graph.factor_vars(FactorId(f)) {
                affected.insert(self.components.find(v.idx()));
            }
        }

        // --- 5. refresh the touched marginals and re-decode --------------
        // Only variables whose incoming messages the run (or a reset, or
        // growth) wrote can have moved; every other message kept its
        // bits, so its cached marginal stays exact. A cold or unconverged
        // run refreshes everything.
        let refresh_all = !graph_unchanged && (!warm_started || !lbp.converged);
        let refreshed = {
            let _span = jocl_obs::span!("marginal_refresh");
            engine.refresh_marginals(&mut self.marginals, refresh_all)
        };
        self.lbp = engine.into_state();
        if self.config.message_store == MessageStore::Quantized {
            self.committed = Some(self.lbp.export_messages(MessageStore::Quantized));
            self.lbp.release_messages();
        }
        self.warm = true;
        self.prior_converged = lbp.converged;

        DeltaOutput {
            output: self.decode(lbp),
            stats: DeltaStats {
                appended: new_ids.len(),
                duplicates,
                retracted: retracted_ids.len(),
                missed_retracts,
                revised,
                tombstoned_factors: newly_dead.len(),
                live_triples: self.num_live(),
                tombstone_density: self.tombstone_density(),
                compacted: false,
                new_pairs: delta.len(),
                new_vars: num_vars - first_new_var,
                new_factors: num_factors - first_new_factor,
                affected_components: affected.len(),
                total_components: self.components.num_components(),
                refreshed_vars: refreshed,
                triangle_budget_exhausted: self.builder.triangles_skipped(),
                warm_started,
                lbp,
            },
        }
    }

    /// Neutralize every not-yet-dead factor adjacent to a variable owned
    /// by one of the `retracted` triples (their link variables, and every
    /// pair variable with a retracted endpoint). Returns the sorted list
    /// of newly tombstoned factor ids.
    fn tombstone(&mut self, retracted: &[TripleId]) -> Vec<u32> {
        if retracted.is_empty() {
            return Vec::new();
        }
        let mut dead_vars: Vec<VarId> = Vec::new();
        for &t in retracted {
            for slot in [NpSlot::Subject, NpSlot::Object] {
                if let Some(v) = self.plan.np_link_vars[NpMention { triple: t, slot }.dense()] {
                    dead_vars.push(v);
                }
            }
            if let Some(v) = self.plan.rp_link_vars[RpMention(t).dense()] {
                dead_vars.push(v);
            }
            dead_vars.extend(self.builder.pair_vars_of(t));
        }
        dead_vars.sort_unstable();
        dead_vars.dedup();
        let mut newly: Vec<u32> = Vec::new();
        for &v in &dead_vars {
            let adjacent: Vec<FactorId> = self.plan.graph.var_factors(v).map(|(f, _)| f).collect();
            for f in adjacent {
                if !self.dead_factors[f.idx()] {
                    self.dead_factors[f.idx()] = true;
                    self.plan.graph.neutralize_factor(f);
                    newly.push(f.0);
                }
            }
        }
        newly.sort_unstable();
        newly
    }

    /// Decode the **cached** marginals — no inference, no state
    /// mutation. This is the read path of a freshly restored session:
    /// reproducing its last decode must not touch the bitwise-restored
    /// messages, even when the snapshot was taken after an unconverged
    /// delta (where a warm `apply_ops` would re-prime every factor and
    /// run a full sweep). The attached `LbpResult` is a zero-work stub
    /// whose `converged` reports the persisted convergence state.
    pub fn decode_current(&self) -> JoclOutput {
        self.decode(LbpResult {
            iterations: 0,
            converged: self.prior_converged,
            residual: 0.0,
            message_updates: 0,
        })
    }

    /// Decode the cached marginals over the live triples, reporting `lbp`
    /// as the inference that produced them. Sessions never train, so the
    /// output carries no `learned_params`.
    fn decode(&self, lbp: LbpResult) -> JoclOutput {
        let _span = jocl_obs::span!("decode");
        let diagnostics = Diagnostics {
            lbp,
            num_vars: self.plan.graph.num_vars(),
            num_factors: self.plan.graph.num_factors(),
            pair_counts: (
                self.plan.subj_pair_vars.len(),
                self.plan.pred_pair_vars.len(),
                self.plan.obj_pair_vars.len(),
            ),
            triangles: self.plan.stats.triangles,
            train_epochs: 0,
            train_grad_norm: f64::NAN,
        };
        let live_mask = (self.num_dead_triples > 0).then_some(self.live.as_slice());
        decode_live(&self.okb, &self.plan, &self.marginals, &self.config, diagnostics, live_mask)
    }

    /// Decode committed messages (a quantized commit, or a restored
    /// snapshot's) back into the LBP state, growing the state to the
    /// graph they were committed on — for a restored session, the first
    /// sizing of its arenas.
    fn materialize_messages(&mut self) {
        if let Some(messages) = self.committed.take() {
            let state = std::mem::take(&mut self.lbp);
            let mut state = LbpEngine::with_state(&self.plan.graph, state).into_state();
            state.import_messages(&messages);
            self.lbp = state;
        }
    }

    /// Variables in the live factor graph (tombstoned ones included —
    /// the graph is append-only physically).
    pub fn num_vars(&self) -> usize {
        self.plan.graph.num_vars()
    }

    /// Factors in the live factor graph (tombstones included).
    pub fn num_factors(&self) -> usize {
        self.plan.graph.num_factors()
    }

    /// Live (non-retracted) triples currently in the session.
    pub fn num_live(&self) -> usize {
        self.okb.len() - self.num_dead_triples
    }

    /// Whether triple `id` is live (ids from before the first delta that
    /// retracted anything are always live).
    pub fn is_live(&self, id: TripleId) -> bool {
        self.live.get(id.idx()).copied().unwrap_or(true)
    }

    /// The surviving triples in arrival order — what a from-scratch
    /// batch run (and [`IncrementalJocl::compact`]) would ingest.
    pub fn live_triples(&self) -> Vec<Triple> {
        self.okb.triples().filter(|(id, _)| self.is_live(*id)).map(|(_, t)| t.clone()).collect()
    }

    /// Fraction of factors that are tombstones — the wasted inference
    /// capacity retractions have accumulated, and the quantity serving
    /// compaction thresholds are expressed in. 0.0 for a fresh or
    /// freshly compacted session.
    pub fn tombstone_density(&self) -> f64 {
        if self.plan.graph.num_factors() == 0 {
            0.0
        } else {
            self.num_dead_factors as f64 / self.plan.graph.num_factors() as f64
        }
    }

    /// Rebuild the session **cold** from the surviving triples: fresh
    /// compact triple ids, no tombstoned variables or factors, one batch
    /// LBP run on the survivors. Decode is unchanged (the tombstone
    /// parity contract is exactly that the live slice already decodes
    /// like this rebuild); what compaction buys back is graph size and
    /// per-delta cost. The per-phrase feature caches survive (they are
    /// pure functions of the frozen signals), as does the session-total
    /// message-update counter.
    pub fn compact(&mut self) -> DeltaOutput {
        let sw = jocl_obs::Stopwatch::start();
        let _span = jocl_obs::span!("compaction");
        let survivors = self.live_triples();
        let mut fresh = IncrementalJocl::new(self.config.clone(), self.ckb, self.signals);
        fresh.builder.adopt_caches(&mut self.builder);
        fresh.total_message_updates = self.total_message_updates;
        let mut out = fresh.apply_delta(&survivors);
        out.stats.compacted = true;
        *self = fresh;
        let m = delta_metrics();
        m.compaction_ns.record(sw.ns());
        m.compactions_total.inc();
        m.last_compaction_ms.set(sw.ms_u64());
        out
    }

    /// Serialize the complete warm-session state (see the module docs:
    /// everything that grows — OKB, blocking, plan, messages, marginals,
    /// components, liveness — but not the shared CKB/signals/config).
    /// The per-phrase feature caches are deliberately omitted: they are
    /// pure functions of the frozen signals and refill on demand with
    /// bitwise-identical values.
    pub fn export_state(&mut self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.okb.export_state(&mut w);
        self.blocking.export_state(&mut w);
        self.plan.export_state(&mut w);
        w.tag("MSG");
        w.bool(self.warm);
        if self.warm {
            let exported;
            let m = match &self.committed {
                Some(m) => m,
                None => {
                    exported = self.lbp.export_messages(self.config.message_store);
                    &exported
                }
            };
            w.usize(m.num_edges());
            write_arena(&mut w, m.fv());
            write_arena(&mut w, m.vf());
        }
        w.tag("SESS");
        w.bool(self.prior_converged);
        w.usize(self.marginals.len());
        for v in 0..self.marginals.len() {
            w.f64_slice_packed(self.marginals.of(VarId(v as u32)));
        }
        let (parent, size, components) = self.components.export_state();
        w.u32_slice_packed(parent);
        w.u32_slice_packed(size);
        w.usize(components);
        w.bool_slice_packed(&self.live);
        w.bool_slice_packed(&self.dead_factors);
        w.usize(self.builder.triangle_budget());
        w.bool(self.builder.triangles_skipped());
        w.u64(self.total_message_updates);
        w.into_bytes()
    }

    /// Rebuild a session from [`IncrementalJocl::export_state`] bytes
    /// plus the shared serving resources. The restored session holds the
    /// *bitwise*-identical committed messages and marginals, so its next
    /// delta behaves exactly like the uninterrupted session's would.
    /// Corruption and cross-state inconsistencies surface as typed
    /// [`KbError`]s, never as panics or silently wrong state.
    ///
    /// # Panics
    /// Panics if `config.lbp.schedule` is not [`paper_schedule`],
    /// `config.lbp.mode` is not `ScheduleMode::Residual` or
    /// `config.pretrained_params` has the wrong shape, as
    /// [`IncrementalJocl::new`] does.
    pub fn import_state(
        bytes: &[u8],
        config: JoclConfig,
        ckb: &'a Ckb,
        signals: &'a Signals,
    ) -> Result<Self, KbError> {
        assert_paper_schedule(&config);
        assert_residual_schedule(&config);
        let mut r = SnapReader::new(bytes);
        let okb = Okb::import_state(&mut r)?;
        let blocking = BlockingIndex::import_state(&mut r, &config, okb.len())?;
        let plan = GraphPlan::import_state(&mut r, &config)?;
        let num_vars = plan.graph.num_vars();
        let num_factors = plan.graph.num_factors();
        // Cross-validate the plan's mention maps against the OKB.
        if plan.np_link_vars.len() != okb.num_np_mentions()
            || plan.np_candidates.len() != okb.num_np_mentions()
            || plan.rp_link_vars.len() != okb.num_rp_mentions()
            || plan.rp_candidates.len() != okb.num_rp_mentions()
        {
            return Err(r.corrupt(format!(
                "plan mention maps ({} np / {} rp) disagree with the OKB ({} np / {} rp)",
                plan.np_link_vars.len(),
                plan.rp_link_vars.len(),
                okb.num_np_mentions(),
                okb.num_rp_mentions()
            )));
        }
        // Pair registries address triples of this OKB (decode and the
        // tombstone machinery index the live mask and mention maps with
        // them) and must be ordered.
        for list in [&plan.subj_pair_vars, &plan.pred_pair_vars, &plan.obj_pair_vars] {
            if let Some(&(a, b, _)) =
                list.iter().find(|&&(a, b, _)| a.0 >= b.0 || b.idx() >= okb.len())
            {
                return Err(r.corrupt(format!(
                    "pair ({}, {}) is unordered or out of range for {} triples",
                    a.0,
                    b.0,
                    okb.len()
                )));
            }
        }
        r.expect_tag("MSG")?;
        let messages = if r.bool()? {
            let edges = r.usize()?;
            let fv = read_arena(&mut r, &config)?;
            let vf = read_arena(&mut r, &config)?;
            let (expected_edges, expected_arena) = (plan.graph.num_edges(), plan.graph.arena_len());
            if edges != expected_edges || fv.len() != expected_arena {
                return Err(r.corrupt(format!(
                    "message snapshot ({edges} edges, {} slots) does not fit the graph \
                     ({expected_edges} edges, {expected_arena} slots)",
                    fv.len()
                )));
            }
            Some(LbpMessages::import_state(fv, vf, edges).map_err(|msg| r.corrupt(msg))?)
        } else {
            None
        };
        r.expect_tag("SESS")?;
        let prior_converged = r.bool()?;
        let num_marginals = r.seq_len(1)?;
        if num_marginals != num_vars {
            return Err(
                r.corrupt(format!("{num_marginals} cached marginals for {num_vars} variables"))
            );
        }
        let mut marginals = Vec::with_capacity(num_marginals);
        for v in 0..num_marginals {
            let m = r.f64_vec_packed()?;
            if m.len() != plan.graph.cardinality(VarId(v as u32)) as usize {
                return Err(r.corrupt(format!("marginal {v} has the wrong cardinality")));
            }
            marginals.push(m);
        }
        let parent = r.u32_vec_packed()?;
        let size = r.u32_vec_packed()?;
        let num_components = r.usize()?;
        let components =
            UnionFind::import_state(parent, size, num_components).map_err(|msg| r.corrupt(msg))?;
        if components.len() != num_vars {
            return Err(r.corrupt(format!(
                "component tracker covers {} items for {num_vars} variables",
                components.len()
            )));
        }
        let live = r.bool_vec_packed()?;
        if live.len() != okb.len() {
            return Err(r.corrupt(format!(
                "live mask covers {} of {} triples",
                live.len(),
                okb.len()
            )));
        }
        let dead_factors = r.bool_vec_packed()?;
        if dead_factors.len() != num_factors {
            return Err(r.corrupt(format!(
                "tombstone mask covers {} of {num_factors} factors",
                dead_factors.len()
            )));
        }
        let triangle_budget = r.usize()?;
        let triangles_skipped = r.bool()?;
        let total_message_updates = r.u64()?;
        r.expect_end()?;

        // Rebuild the pair-graph adjacency from the plan's registries
        // (pure function of them; insertion order does not influence any
        // decision downstream — triangle candidates are sorted).
        let builder = GraphBuilder::restore(&plan, triangle_budget, triangles_skipped);
        let num_dead_triples = live.iter().filter(|&&l| !l).count();
        let num_dead_factors = dead_factors.iter().filter(|&&d| d).count();
        Ok(Self {
            config,
            ckb,
            signals,
            okb,
            blocking,
            plan,
            lbp: LbpState::new(),
            warm: messages.is_some(),
            committed: messages,
            prior_converged,
            marginals: Marginals::from_probs(marginals),
            components,
            builder,
            live,
            dead_factors,
            num_dead_factors,
            num_dead_triples,
            total_message_updates,
        })
    }

    /// Resident heap bytes of the session's owned state: OKB, blocking
    /// index, graph plan (edge index included), LBP state (messages and
    /// residual queue), committed messages, cached marginals and the liveness
    /// masks. The per-phrase feature caches are excluded — they
    /// are transient, refillable functions of the frozen signals, not
    /// part of the state a snapshot persists.
    pub fn heap_bytes(&self) -> usize {
        self.okb.heap_bytes()
            + self.blocking.heap_bytes()
            + self.plan.heap_bytes()
            + self.lbp.heap_bytes()
            + self.committed.as_ref().map_or(0, LbpMessages::heap_bytes)
            + self.marginals.heap_bytes()
            + self.live.capacity()
            + self.dead_factors.capacity()
    }

    /// Resident heap bytes of just the message arenas between deltas
    /// (the component the [`jocl_fg::MessageStore`] choice governs): the
    /// committed encoding when there is one, else the resident `f64`
    /// arenas; 0 on a cold session. The `memory_scale` gate compares this
    /// across stores, isolated from the OKB/blocking/plan bytes the store
    /// cannot change.
    pub fn message_heap_bytes(&self) -> usize {
        self.committed
            .as_ref()
            .map_or_else(|| self.lbp.message_heap_bytes(), LbpMessages::heap_bytes)
    }
}

/// Batch runs, training and sessions all converge the paper's phased
/// schedule (§3.4) and run `config.lbp` as it is, so any other schedule
/// fails here, naming the field, instead of being replaced silently.
pub(crate) fn assert_paper_schedule(config: &JoclConfig) {
    assert!(
        config.lbp.schedule == paper_schedule(),
        "JOCL runs need lbp.schedule = paper_schedule() (the §3.4 phases); the flooding \
         schedule and other phase lists are for jocl_fg-level use only"
    );
}

/// Sessions warm-start every delta with the residual drain
/// ([`LbpEngine::resume`] rejects anything else); fail at
/// session construction, naming the field, rather than on the second
/// delta.
fn assert_residual_schedule(config: &JoclConfig) {
    assert_eq!(
        config.lbp.mode,
        jocl_fg::ScheduleMode::Residual,
        "incremental sessions need lbp.mode = Residual (synchronous sweeps are the cold \
         reference oracle only)"
    );
}

/// Serialize one committed message arena: a kind word, then the stored
/// representation bit-exactly. Exact arenas XOR-delta pack (near-
/// converged messages compress hard); quantized arenas write packed
/// anchors plus raw f32 residual bits.
fn write_arena(w: &mut SnapWriter, arena: &jocl_fg::MessageArena) {
    match arena {
        jocl_fg::MessageArena::Exact(v) => {
            w.u64(0);
            w.f64_slice_packed(v);
        }
        jocl_fg::MessageArena::Quantized(q) => {
            w.u64(1);
            let (anchors, residuals) = q.state();
            w.f64_slice_packed(anchors);
            w.f32_slice(residuals);
        }
    }
}

/// Deserialize one committed message arena and reject a representation
/// that disagrees with the session's configured [`jocl_fg::MessageStore`]
/// — resuming a quantized snapshot into an exact session (or vice versa)
/// would silently change every later commit's bits.
fn read_arena(r: &mut SnapReader, config: &JoclConfig) -> Result<jocl_fg::MessageArena, KbError> {
    let at = r.offset();
    let kind = r.u64()?;
    let stored = match kind {
        0 => jocl_fg::MessageStore::Exact,
        1 => jocl_fg::MessageStore::Quantized,
        k => {
            return Err(KbError::Snapshot {
                offset: at,
                msg: format!("unknown message-arena kind {k}"),
            })
        }
    };
    if stored != config.message_store {
        return Err(KbError::Snapshot {
            offset: at,
            msg: format!(
                "snapshot committed messages are {stored:?} but the session is configured \
                 for {:?}",
                config.message_store
            ),
        });
    }
    match stored {
        jocl_fg::MessageStore::Exact => Ok(jocl_fg::MessageArena::Exact(r.f64_vec_packed()?)),
        jocl_fg::MessageStore::Quantized => {
            let at = r.offset();
            let anchors = r.f64_vec_packed()?;
            let residuals = r.f32_vec()?;
            let q = jocl_fg::QuantArena::from_state(anchors, residuals)
                .map_err(|msg| KbError::Snapshot { offset: at, msg })?;
            Ok(jocl_fg::MessageArena::Quantized(q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::block_pairs;
    use crate::builder::build_graph;
    use crate::signals::build_signals;

    /// One graph builder: a session whose first delta is the whole OKB
    /// holds exactly the plan `build_graph` produces on that OKB — same
    /// node order, potentials, candidates, pair registries and stats.
    #[test]
    fn whole_okb_delta_holds_the_batch_plan() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 2, ..Default::default() };
        let ex = crate::example::figure1();
        let ex_signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &sgns);
        let world = jocl_datagen::reverb45k_like(5, 0.002);
        let mut okb = Okb::new();
        for (_, t) in world.okb.triples() {
            okb.ingest_triple(t.clone());
        }
        let signals = build_signals(&okb, &world.ckb, &world.ppdb, &world.corpus, &sgns);
        let world_config = JoclConfig { train_epochs: 0, ..JoclConfig::default() };
        for (what, okb, ckb, signals, config) in [
            ("figure 1", &ex.okb, &ex.ckb, &ex_signals, ex.config()),
            ("reverb45k_like", &okb, &world.ckb, &signals, world_config),
        ] {
            let blocking = block_pairs(okb, signals, &config);
            let batch = build_graph(okb, ckb, signals, &blocking, &config);
            let triples: Vec<Triple> = okb.triples().map(|(_, t)| t.clone()).collect();
            let mut session = IncrementalJocl::new(config, ckb, signals);
            session.apply_delta(&triples);
            let plan = &session.plan;
            assert!(plan.graph.num_factors() > 0, "{what}: nothing built");
            assert_eq!(format!("{:?}", plan.graph), format!("{:?}", batch.graph), "{what}");
            assert_eq!(plan.np_link_vars, batch.np_link_vars, "{what}");
            assert_eq!(plan.np_candidates, batch.np_candidates, "{what}");
            assert_eq!(plan.rp_link_vars, batch.rp_link_vars, "{what}");
            assert_eq!(plan.rp_candidates, batch.rp_candidates, "{what}");
            assert_eq!(plan.subj_pair_vars, batch.subj_pair_vars, "{what}");
            assert_eq!(plan.pred_pair_vars, batch.pred_pair_vars, "{what}");
            assert_eq!(plan.obj_pair_vars, batch.obj_pair_vars, "{what}");
            assert_eq!(plan.stats, batch.stats, "{what}");
        }
    }

    /// A seeded add / retract / revise sequence over a small generated
    /// world: mostly adds of fresh triples, with retractions and
    /// revisions of earlier live ones.
    fn mixed_deltas(triples: &[Triple], seed: u64) -> Vec<Vec<DeltaOp>> {
        let mut rng = seed;
        let mut next = |n: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % n.max(1)
        };
        let (mut live, mut fresh) = (Vec::new(), triples.iter());
        let mut deltas = Vec::new();
        for i in 0..12 {
            let mut ops = Vec::new();
            for t in fresh.by_ref().take(if i == 0 { 24 } else { 4 }) {
                ops.push(DeltaOp::Add(t.clone()));
                live.push(t.clone());
            }
            if i % 3 == 1 && !live.is_empty() {
                ops.push(DeltaOp::Retract(live.swap_remove(next(live.len()))));
            }
            if i % 3 == 2 {
                if let Some(new) = fresh.next() {
                    let old = live.swap_remove(next(live.len()));
                    ops.push(DeltaOp::Revise { old, new: new.clone() });
                    live.push(new.clone());
                }
            }
            deltas.push(ops);
        }
        deltas
    }

    /// A session restored from the previous delta's snapshot and then
    /// given the same delta ends bitwise where the resident session
    /// does, under both message stores — including after a delta cut off
    /// at `max_iters`, whose leftover priorities and queue the resident
    /// state must clear. Under the exact store the cached marginals also
    /// equal a full recompute from the resident messages, bit for bit.
    #[test]
    fn restored_every_delta_matches_the_resident_session() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 2, ..Default::default() };
        let world = jocl_datagen::reverb45k_like(7, 0.002);
        let triples: Vec<Triple> = world.okb.triples().map(|(_, t)| t.clone()).collect();
        let mut okb = Okb::new();
        for t in &triples {
            okb.ingest_triple(t.clone());
        }
        let signals = build_signals(&okb, &world.ckb, &world.ppdb, &world.corpus, &sgns);
        let deltas = mixed_deltas(&triples, 11);
        for store in [jocl_fg::MessageStore::Exact, jocl_fg::MessageStore::Quantized] {
            let mut config =
                JoclConfig { train_epochs: 0, message_store: store, ..JoclConfig::default() };
            config.lbp.max_iters = 4;
            config.lbp.tol = 1e-7;
            let mut resident = IncrementalJocl::new(config.clone(), &world.ckb, &signals);
            let mut bytes = resident.export_state();
            let (mut cut_off, mut converged) = (0, 0);
            for (i, ops) in deltas.iter().enumerate() {
                let mut restored =
                    IncrementalJocl::import_state(&bytes, config.clone(), &world.ckb, &signals)
                        .expect("snapshot restores");
                let stats = resident.apply_ops(ops).stats;
                let restored_stats = restored.apply_ops(ops).stats;
                assert_eq!(stats.refreshed_vars, restored_stats.refreshed_vars, "delta {i}");
                if stats.lbp.converged {
                    converged += 1;
                } else {
                    cut_off += 1;
                }
                bytes = resident.export_state();
                assert!(bytes == restored.export_state(), "{store:?} delta {i}: states differ");
                if store == jocl_fg::MessageStore::Exact {
                    let engine = LbpEngine::with_state(&resident.plan.graph, resident.lbp.clone());
                    let full = engine.marginals();
                    for v in 0..resident.num_vars() {
                        let v = VarId(v as u32);
                        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(resident.marginals.of(v)),
                            bits(full.of(v)),
                            "delta {i}: cached marginal of {v:?} is stale"
                        );
                    }
                }
            }
            assert!(cut_off > 0 && converged > 0, "{cut_off} cut-off / {converged} converged");
        }
    }

    /// A session refuses weights whose group layout is not the config's.
    #[test]
    #[should_panic(expected = "pretrained params have a different group count")]
    fn wrong_shape_pretrained_params_panic() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 1, ..Default::default() };
        let ex = crate::example::figure1();
        let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &sgns);
        let mut stale = jocl_fg::Params::new();
        stale.add_group(1, 2.0);
        let config = JoclConfig { pretrained_params: Some(stale), ..ex.config() };
        IncrementalJocl::new(config, &ex.ckb, &signals);
    }

    /// The figure 1 config under the flooding schedule (one phase of
    /// every class), which JOCL runs reject rather than replace.
    fn flooding_config() -> JoclConfig {
        let config = crate::example::figure1().config();
        let lbp = jocl_fg::LbpOptions { schedule: jocl_fg::Schedule::default(), ..config.lbp };
        JoclConfig { lbp, ..config }
    }

    #[test]
    #[should_panic(expected = "lbp.schedule")]
    fn sessions_reject_a_flooding_schedule() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 1, ..Default::default() };
        let ex = crate::example::figure1();
        let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &sgns);
        IncrementalJocl::new(flooding_config(), &ex.ckb, &signals);
    }

    #[test]
    #[should_panic(expected = "lbp.schedule")]
    fn restore_rejects_a_flooding_schedule() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 1, ..Default::default() };
        let ex = crate::example::figure1();
        let signals = build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &sgns);
        let bytes = IncrementalJocl::new(ex.config(), &ex.ckb, &signals).export_state();
        let _ = IncrementalJocl::import_state(&bytes, flooding_config(), &ex.ckb, &signals);
    }
}
