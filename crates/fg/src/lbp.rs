//! Loopy belief propagation (sum-product).
//!
//! **Numerics.** Messages are stored in the log domain: both arenas hold
//! normalized log-messages, and damping and normalization act on log
//! values. The factor→variable kernels of factors with two or more
//! variables compute in the linear domain instead: each incoming message
//! is exponentiated under a per-slot max shift
//! (`p_j(x) = exp(vf_j(x) − max vf_j)`), the factor's configurations are
//! summed as plain products of those values, and the result is taken back
//! with one `ln` per outgoing state. The shifts only add a per-slot
//! constant to the raw message, which damping followed by normalization
//! cancels. An outgoing entry whose sum underflows to 0 is written as
//! [`LOG_ZERO`], the same floor that clamp evidence uses, so messages
//! stay finite. Unary factors pass their log-potential through unchanged.
//!
//! Every shifted exponential — incoming messages, dense weights and the
//! normalizer of each written message — goes through `exp_shifted`,
//! which takes the row's maximum (`x − max = ±0.0`) as the literal `1.0`
//! instead of calling `exp`: bitwise the same value, one libm call fewer
//! per row. Normalization is fused with the write
//! (`logspace::normalize_into`): the variable update and the factor
//! commit each produce, normalize, compare and store a message in one
//! pass, with no copy of the old or the raw message. Arity-3
//! configurations decode in `u32` straight-line code. None of this
//! reorders a floating-point operation, so every message keeps its bits.
//!
//! Implements the inference procedure of paper §3.4:
//!
//! * messages are passed between factor and variable nodes until
//!   convergence ("in practice we found that convergence was achieved
//!   within twenty iterations");
//! * a **phased schedule** reproduces the paper's working procedure —
//!   within an iteration, factor classes update in a fixed order
//!   (canonicalization factors → transitive factors → linking factors →
//!   fact-inclusion factors → consistency factors), then variable classes
//!   (canonicalization variables first, then linking variables). A
//!   [`Schedule`] is just those two phase lists; JOCL runs the paper's
//!   (`jocl_core::config::paper_schedule`), and the default — one phase
//!   holding every class — is the flooding schedule of the fg-level
//!   tests and learning defaults;
//! * messages are damped and normalized for stability;
//! * evidence is injected by **clamping** variables, which is how learning
//!   conditions on the labeled configuration `Y|Y_L` (paper Eq. 5).
//!
//! Each run is serial on the caller's thread: the factor → variable
//! update walks its batch in order on the engine's own arenas and scratch
//! buffers, so a run is a pure function of the graph, the weights, the
//! clamps, the options and the messages it starts from. Concurrency
//! lives one level up, where [`crate::learn::train`] runs an epoch's
//! clamped and free engines side by side.
//!
//! Two **update-selection modes** ([`ScheduleMode`]) sit on top of the
//! schedule: `Residual` — a bucketed max-residual priority queue over
//! factor blocks with dirty propagation through each variable's edge
//! list, the serving schedule and the only one warm resumes run —
//! and `Synchronous` full sweeps, kept as the cold reference oracle. The
//! residual drain reaches the sweeps' fixed point within `tol` while
//! recomputing only the messages whose inputs still change
//! ([`LbpResult::message_updates`] counts both modes identically). Both
//! modes update factors through the same fused compute-and-commit batch.
//!
//! **Owned state, borrowed graph.** An [`LbpEngine`] is a graph borrow
//! plus an owned [`LbpState`]. The graph holds all structure: its edge
//! index (factor→edges, edge→variable, edge→factor, arena offsets and
//! each variable's ascending edge list) grows as factors are added. The
//! state holds only what a run writes: the message arenas, the
//! variable totals, the clamps, the schedule masks, the residual
//! priorities and queue, and the set of variables whose incoming
//! messages were written. Batch runs and learning build one from empty
//! ([`LbpEngine::new`]). A serving session keeps the state across
//! deltas and lends it the grown graph ([`LbpEngine::with_state`] /
//! [`LbpEngine::into_state`]); growth extends the arenas over the new
//! edges with uniform messages, and a warm
//! [`LbpEngine::resume`] costs O(dirty) to set up. Afterwards
//! [`LbpEngine::refresh_marginals`] recomputes only the marginals whose
//! inputs were written.

use crate::graph::{FactorGraph, FactorId, Potential, VarId};
use crate::logspace::{exp_shifted, logsumexp, normalize_into, to_probs};
use crate::params::Params;
use crate::store::{MessageArena, MessageStore};
use jocl_obs::{Counter, Histogram, Stopwatch};
use std::sync::{Arc, OnceLock};

/// Log-potential treated as "probability zero" while keeping additions
/// well-conditioned (exp(-1e4) underflows to exactly 0.0): the value of
/// clamped-away states and of kernel outputs that underflow.
pub const LOG_ZERO: f64 = -1.0e4;

/// Panic on the first NaN or infinite weight, naming its group and index:
/// no LBP run may start from weights that cannot produce a distribution.
fn assert_finite_weights(params: &Params) {
    for (group, weights) in params.groups().iter().enumerate() {
        if let Some((index, w)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            panic!("LBP weights must be finite: group {group} index {index} is {w}");
        }
    }
}

/// Per-mode sweep metrics, registered once and cached so the LBP hot
/// path never touches the registry mutex. Metrics are observational
/// only — recording them cannot perturb message values, so marginals
/// are bitwise-identical with metrics on or off.
struct SweepMetrics {
    sweep_ns: Arc<Histogram>,
    message_updates: Arc<Counter>,
}

fn sweep_metrics(mode: &ScheduleMode) -> &'static SweepMetrics {
    static SYNC: OnceLock<SweepMetrics> = OnceLock::new();
    static RESIDUAL: OnceLock<SweepMetrics> = OnceLock::new();
    let (cell, label) = match mode {
        ScheduleMode::Synchronous => (&SYNC, "synchronous"),
        ScheduleMode::Residual => (&RESIDUAL, "residual"),
    };
    cell.get_or_init(|| {
        let labels = [("mode", label)];
        SweepMetrics {
            sweep_ns: jocl_obs::registry().histogram("jocl_lbp_sweep_ns", &labels),
            message_updates: jocl_obs::registry()
                .counter("jocl_lbp_message_updates_total", &labels),
        }
    })
}

/// Record one converged LBP run (cold or warm) into the per-mode
/// histogram/counter and fold the update count into the enclosing span.
fn record_sweep(
    mode: &ScheduleMode,
    sw: &Stopwatch,
    result: &LbpResult,
    span: &mut jocl_obs::SpanGuard,
) {
    span.add_count(result.message_updates);
    let m = sweep_metrics(mode);
    m.sweep_ns.record(sw.ns());
    m.message_updates.add(result.message_updates);
}

/// How message updates are *selected* within the [`Schedule`]'s class
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Full sweeps: every scheduled factor updates each iteration, phase
    /// by phase, then every scheduled variable. The cold reference oracle
    /// (and `LbpOptions::default()`); warm resumes reject it.
    #[default]
    Synchronous,
    /// Residual-scheduled message passing (Elidan et al., UAI 2006
    /// style): after one priming sweep, factor blocks are re-updated in
    /// max-residual-first order from a bucketed O(1)-pop priority queue.
    /// A factor's priority is the accumulated change of its incoming
    /// variable→factor messages since its last update — a sound upper
    /// bound on the residual of recomputing it, so an empty queue
    /// certifies that no message can move by `tol` or more. Converges to
    /// the same fixed point within `tol` as [`ScheduleMode::Synchronous`]
    /// while recomputing only the messages whose inputs still change;
    /// [`LbpResult::message_updates`] counts the savings.
    Residual,
}

/// Message-passing schedule: the class structure of one iteration.
/// Factor classes update phase by phase, then variable classes phase by
/// phase; a class absent from every phase never updates. The paper's §3.4
/// procedure is one such list (`jocl_core::config::paper_schedule`). The
/// default is one phase holding every class: all factors update together,
/// then all variables — the textbook flooding schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Ordered factor-class phases, e.g. `[[F_CANON], [U_TRANS], ...]`.
    pub factor_phases: Vec<Vec<u8>>,
    /// Ordered variable-class phases.
    pub var_phases: Vec<Vec<u8>>,
}

impl Default for Schedule {
    fn default() -> Self {
        let all: Vec<u8> = (0..=u8::MAX).collect();
        Self { factor_phases: vec![all.clone()], var_phases: vec![all] }
    }
}

/// Factor blocks drained from the priority queue per round in
/// [`ScheduleMode::Residual`]: the schedule's granularity. Each round
/// updates its blocks against the same variable→factor messages, then
/// refreshes the variables they touch and re-prioritizes, so smaller
/// batches follow the priorities more faithfully and larger ones spend
/// fewer refresh rounds. It shapes the trajectory, and therefore the bits
/// of every message.
const RESIDUAL_BATCH: usize = 32;

/// Options for [`LbpEngine::run`].
#[derive(Debug, Clone)]
pub struct LbpOptions {
    /// Maximum full iterations (paper: ~20 suffices).
    pub max_iters: usize,
    /// Convergence threshold on the max message change.
    pub tol: f64,
    /// Damping λ applied to factor→variable messages:
    /// `m ← λ·m_old + (1−λ)·m_new`.
    pub damping: f64,
    /// Schedule (see [`Schedule`]).
    pub schedule: Schedule,
    /// Update-selection mode (see [`ScheduleMode`]).
    pub mode: ScheduleMode,
}

impl Default for LbpOptions {
    fn default() -> Self {
        Self {
            max_iters: 50,
            tol: 1e-4,
            damping: 0.1,
            schedule: Schedule::default(),
            mode: ScheduleMode::Synchronous,
        }
    }
}

/// Statistics of an LBP run.
#[derive(Debug, Clone, Copy)]
pub struct LbpResult {
    /// Iterations executed. In residual mode this is the number of
    /// *sweep-equivalents*: `message_updates` divided by the messages one
    /// full sweep would recompute, rounded up — directly comparable to
    /// the synchronous iteration count.
    pub iterations: usize,
    /// Whether the residual dropped below `tol`.
    pub converged: bool,
    /// Final max message residual (in residual mode after convergence:
    /// the largest remaining priority, an upper bound on any message's
    /// pending change).
    pub residual: f64,
    /// Factor→variable messages recomputed — one per factor edge per
    /// factor-block update, with identical accounting in both schedule
    /// modes, so synchronous vs residual counts are directly comparable.
    pub message_updates: u64,
}

/// Per-variable marginal distributions.
#[derive(Debug, Clone)]
pub struct Marginals {
    probs: Vec<Vec<f64>>,
}

impl Marginals {
    /// Internal constructor shared with the exact-inference module.
    pub(crate) fn new_internal(probs: Vec<Vec<f64>>) -> Self {
        Self { probs }
    }

    /// Probability vector of variable `v`.
    pub fn of(&self, v: VarId) -> &[f64] {
        &self.probs[v.idx()]
    }

    /// MAP state of variable `v` (ties broken toward the lower state).
    pub fn map_state(&self, v: VarId) -> u32 {
        let p = &self.probs[v.idx()];
        let mut best = 0usize;
        for (i, &x) in p.iter().enumerate() {
            if x > p[best] {
                best = i;
            }
        }
        best as u32
    }

    /// `P(v = state)`.
    pub fn prob(&self, v: VarId, state: u32) -> f64 {
        self.probs[v.idx()][state as usize]
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Heap bytes of the probability vectors.
    pub fn heap_bytes(&self) -> usize {
        self.probs.iter().map(|p| p.capacity() * 8).sum::<usize>()
            + self.probs.capacity() * std::mem::size_of::<Vec<f64>>()
    }
}

/// The owned half of an LBP engine: everything a run writes. The graph
/// owns the structure — the edge index, arena offsets and adjacency —
/// and an [`LbpEngine`] pairs this state with a borrow of it, so a
/// long-lived owner (the serving session) keeps one state across graph
/// growth and lends it the grown graph per delta
/// ([`LbpEngine::with_state`] / [`LbpEngine::into_state`]); batch runs
/// and learning build one from empty with [`LbpEngine::new`].
///
/// The state only grows: a graph handed to it must extend the one it was
/// last grown to, which is what appending variables and factors
/// guarantees (the graph numbers edges in the order factors are added,
/// and existing variables keep their cardinalities). The arenas cover a
/// prefix of the graph's edges; the new edges start from uniform
/// messages, exactly as [`LbpEngine::reset_messages`] writes them.
///
/// Between runs the residual priorities are all 0.0 and the queue is
/// empty, as in a fresh state: each run clears exactly the entries it
/// raised before it returns, so a resident state and one restored from
/// its messages take the same trajectory.
#[derive(Clone)]
pub struct LbpState {
    /// Edges the message arenas cover (the graph's first `edges`).
    edges: usize,
    /// factor→variable messages (log domain, normalized).
    fv: Vec<f64>,
    /// variable→factor messages (log domain, normalized).
    vf: Vec<f64>,
    /// Kernel buffers reused by every factor update.
    scratch: Scratch,
    /// Per-state total of incoming factor→variable messages, reused by
    /// every variable update.
    var_total: Vec<f64>,
    /// Clamp of each variable, allocated by the first
    /// [`LbpEngine::set_clamp`] (a session never clamps).
    clamps: Vec<Option<u32>>,
    /// The schedule's class masks and the per-node scheduled flags.
    masks: ScheduleMasks,
    /// Residual priorities and queue, sized to the factors covered.
    drain: Drain,
    /// Variables whose incoming (factor→variable) messages were written
    /// since the last [`LbpEngine::refresh_marginals`], sized to the
    /// variables covered.
    touched: IdSet,
}

impl Default for LbpState {
    fn default() -> Self {
        Self::new()
    }
}

impl LbpState {
    /// An empty state: no edges, no messages.
    pub fn new() -> Self {
        Self {
            edges: 0,
            fv: Vec::new(),
            vf: Vec::new(),
            scratch: Scratch::default(),
            var_total: Vec::new(),
            clamps: Vec::new(),
            masks: ScheduleMasks::default(),
            drain: Drain::default(),
            touched: IdSet::default(),
        }
    }

    #[inline]
    fn clamp(&self, v: usize) -> Option<u32> {
        self.clamps.get(v).copied().flatten()
    }

    /// Whether the message arenas are resident (not released). Every
    /// edge has at least one slot, so only a released state with edges
    /// has empty arenas.
    fn messages_resident(&self) -> bool {
        self.edges == 0 || !self.fv.is_empty()
    }

    /// Encode the current messages under the given committed-arena
    /// representation (the [`MessageStore`] seam — see [`crate::store`]):
    /// what a snapshot persists, and what a quantized session keeps
    /// between deltas.
    ///
    /// # Panics
    /// Panics if the messages were released.
    pub fn export_messages(&self, store: MessageStore) -> LbpMessages {
        assert!(self.messages_resident(), "LBP messages were released; import them first");
        LbpMessages {
            fv: MessageArena::encode(&self.fv, store),
            vf: MessageArena::encode(&self.vf, store),
            edges: self.edges,
        }
    }

    /// Replace every message with `messages`, which must cover exactly
    /// this state's edges (export from the same graph, or a state grown
    /// to it) — and, while this state's arenas are resident, exactly
    /// their slots. Clears the touched set: the imported messages are
    /// the committed ones, and marginals cached against them stay
    /// current.
    ///
    /// # Panics
    /// Panics if the snapshot does not cover exactly this state's edges
    /// (e.g. the graph was rebuilt rather than grown by appending).
    pub fn import_messages(&mut self, messages: &LbpMessages) {
        let slots = if self.messages_resident() { self.fv.len() } else { messages.fv.len() };
        assert!(
            messages.edges == self.edges && messages.fv.len() == slots,
            "message snapshot ({} edges, {} slots) must cover exactly the state's {} edges and \
             {slots} slots: graphs only grow by appending",
            messages.edges,
            messages.fv.len(),
            self.edges
        );
        self.fv.resize(slots, 0.0);
        self.vf.resize(slots, 0.0);
        messages.fv.decode_into(&mut self.fv);
        messages.vf.decode_into(&mut self.vf);
        self.touched.clear();
    }

    /// Free both message arenas (after [`LbpState::export_messages`] has
    /// committed them elsewhere); [`LbpState::import_messages`] brings
    /// them back. A state without messages cannot run or grow.
    pub fn release_messages(&mut self) {
        self.fv = Vec::new();
        self.vf = Vec::new();
    }

    /// Heap bytes of the two resident message arenas (0 once released).
    pub fn message_heap_bytes(&self) -> usize {
        (self.fv.capacity() + self.vf.capacity()) * 8
    }

    /// Heap bytes of the whole state: the arenas plus the clamps,
    /// touched set, schedule masks and residual queue.
    pub fn heap_bytes(&self) -> usize {
        self.message_heap_bytes()
            + self.clamps.capacity() * std::mem::size_of::<Option<u32>>()
            + self.touched.heap_bytes()
            + self.masks.heap_bytes()
            + self.drain.heap_bytes()
    }
}

/// The class masks of one [`Schedule`] and the scheduled flag of every
/// factor and variable, computed once and grown with the graph.
#[derive(Clone, Default)]
struct ScheduleMasks {
    /// The schedule the masks describe (`None` before the first run).
    schedule: Option<Schedule>,
    /// Per-phase class membership.
    factor_phases: Vec<[bool; 256]>,
    var_phases: Vec<[bool; 256]>,
    /// Whether each factor / variable belongs to some phase. Classes
    /// absent from the schedule never update, in either mode.
    factor_active: Vec<bool>,
    var_active: Vec<bool>,
    /// Edges of the scheduled factors: the messages one full sweep
    /// recomputes.
    sweep_messages: u64,
}

impl ScheduleMasks {
    fn heap_bytes(&self) -> usize {
        (self.factor_phases.capacity() + self.var_phases.capacity()) * 256
            + self.factor_active.capacity()
            + self.var_active.capacity()
    }
}

/// A set of ids with O(1) insert and a clear that costs its size: the
/// ids in insertion order, plus a membership flag per possible id.
#[derive(Clone, Default)]
struct IdSet {
    ids: Vec<u32>,
    member: Vec<bool>,
}

impl IdSet {
    /// Admit ids `0..n`.
    fn grow(&mut self, n: usize) {
        self.member.resize(n, false);
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        if !self.member[id as usize] {
            self.member[id as usize] = true;
            self.ids.push(id);
        }
    }

    fn clear(&mut self) {
        for &id in &self.ids {
            self.member[id as usize] = false;
        }
        self.ids.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 4 + self.member.capacity()
    }
}

/// The residual drain's per-factor priorities and bucket queue.
#[derive(Clone)]
struct Drain {
    prio: Vec<f64>,
    /// Factors raised since the last reset: their priority may be
    /// non-zero, or they may be queued.
    raised: IdSet,
    queue: BucketQueue,
}

impl Default for Drain {
    fn default() -> Self {
        Self {
            prio: Vec::new(),
            raised: IdSet::default(),
            queue: BucketQueue::new(f64::MIN_POSITIVE, 0),
        }
    }
}

impl Drain {
    fn grow(&mut self, num_factors: usize) {
        self.prio.resize(num_factors, 0.0);
        self.raised.grow(num_factors);
        self.queue.grow(num_factors);
    }

    /// Back to the fresh state — every priority 0.0, nothing queued —
    /// touching only what the run raised.
    fn reset(&mut self) {
        for &f in &self.raised.ids {
            self.prio[f as usize] = 0.0;
        }
        self.raised.clear();
        self.queue.clear();
    }

    /// Add `delta` to factor `f`'s priority and (re-)enqueue it once the
    /// priority reaches `tol`.
    #[inline]
    fn raise(&mut self, f: u32, delta: f64) {
        self.raised.insert(f);
        let old_p = self.prio[f as usize];
        let new_p = old_p + delta;
        self.prio[f as usize] = new_p;
        self.queue.update(f, old_p, new_p);
    }

    /// Largest remaining priority (0.0 when none is left).
    fn max_priority(&self) -> f64 {
        self.raised.ids.iter().map(|&f| self.prio[f as usize]).fold(0.0, f64::max)
    }

    fn heap_bytes(&self) -> usize {
        self.prio.capacity() * 8 + self.raised.heap_bytes() + self.queue.heap_bytes()
    }
}

/// LBP over one graph: a borrowed [`FactorGraph`] and an owned
/// [`LbpState`].
pub struct LbpEngine<'g> {
    graph: &'g FactorGraph,
    s: LbpState,
}

impl<'g> LbpEngine<'g> {
    /// An engine over `graph` with uniform messages: an empty
    /// [`LbpState`] grown to `graph`.
    pub fn new(graph: &'g FactorGraph) -> Self {
        Self::with_state(graph, LbpState::new())
    }

    /// Lend `graph` to `state`, first growing the state by the variables
    /// and factors `graph` appends to the graph it was last grown to.
    /// New edges get uniform messages (clamp evidence on a clamped
    /// variable's variable→factor side), and their variables count as
    /// touched.
    ///
    /// # Panics
    /// Panics if `graph` has fewer variables, factors or edges than the
    /// state covers, if the resident messages do not fill exactly the
    /// arena slots of the edges the state covers, or if edges must be
    /// appended to a state whose messages were released.
    pub fn with_state(graph: &'g FactorGraph, state: LbpState) -> Self {
        let mut eng = Self { graph, s: state };
        eng.grow();
        eng
    }

    /// Give the state back (the graph borrow ends here).
    pub fn into_state(self) -> LbpState {
        self.s
    }

    fn grow(&mut self) {
        let graph = self.graph;
        let s = &mut self.s;
        let (nf0, nv0) = (s.drain.prio.len(), s.touched.member.len());
        let (nf, nv) = (graph.num_factors(), graph.num_vars());
        assert!(
            nf >= nf0 && nv >= nv0,
            "an LBP state only grows: the graph has {nv} vars / {nf} factors, the state covers \
             {nv0} / {nf0}"
        );
        s.touched.grow(nv);
        s.drain.grow(nf);
        if graph.num_edges() > s.edges {
            assert!(s.messages_resident(), "LBP messages were released; import them first");
            let new_slots = graph.arena_len().saturating_sub(s.fv.len());
            s.fv.reserve(new_slots);
            s.vf.reserve(new_slots);
            for e in s.edges..graph.num_edges() {
                let v = graph.edge_var[e];
                let card = graph.edge_slots(e).len();
                let uniform = -(card as f64).ln();
                s.fv.resize(s.fv.len() + card, uniform);
                match s.clamp(v.idx()) {
                    None => s.vf.resize(s.vf.len() + card, uniform),
                    Some(state) => {
                        s.vf.extend(
                            (0..card).map(|i| if i == state as usize { 0.0 } else { LOG_ZERO }),
                        )
                    }
                }
                s.touched.insert(v.0);
            }
            s.edges = graph.num_edges();
        }
        let fits = s.edges == graph.num_edges()
            && (!s.messages_resident() || s.fv.len() == graph.arena_len());
        assert!(fits, "the LBP state's messages do not cover a prefix of the graph's edges");
    }

    /// Warm-started run from the resident messages: converge with only
    /// `dirty` factor blocks scheduled up front. `dirty` is typically the
    /// factors appended since the last run (see [`LbpEngine::with_state`]);
    /// everything else re-enters the computation only if dirty
    /// propagation actually reaches it. Callers may adjust the messages
    /// first — the serving retraction path resets the tombstoned factors'
    /// messages to uniform ([`LbpEngine::reset_factor_messages`]) and only
    /// then resumes with the tombstones *and their live neighbors* in
    /// `dirty`.
    ///
    /// Resumes are always residual-scheduled: the priming sweep is
    /// restricted to the dirty set and the drain starts from there, so an
    /// untouched connected component performs **zero** message updates
    /// and its messages (and therefore marginals) are preserved
    /// bit-for-bit. Set-up costs O(dirty), not O(graph).
    ///
    /// # Panics
    /// Panics unless `opts.mode` is [`ScheduleMode::Residual`] (the
    /// synchronous sweeps are the cold reference oracle only), and, like
    /// [`LbpEngine::run`], on a non-finite weight in `params`.
    pub fn resume(&mut self, params: &Params, opts: &LbpOptions, dirty: &[u32]) -> LbpResult {
        assert_finite_weights(params);
        assert_eq!(
            opts.mode,
            ScheduleMode::Residual,
            "warm LBP resumes run the residual drain only (lbp.mode must be Residual)"
        );
        self.sync_schedule(&opts.schedule);
        // Re-derive the variable→factor messages of every *scheduled*
        // variable a dirty factor touches: a new edge's vf is uniform,
        // and priming quality (not correctness) depends on the first
        // factor update seeing consistent inputs. Unscheduled variable
        // classes stay frozen, exactly as both cold paths keep them.
        let var_active = &self.s.masks.var_active;
        let mut vars: Vec<u32> = dirty
            .iter()
            .flat_map(|&f| self.graph.factor_vars(FactorId(f)))
            .map(|v| v.0)
            .filter(|&v| var_active[v as usize])
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let sw = Stopwatch::start();
        let mut span = jocl_obs::span!("lbp_sweep");
        self.update_var_messages(&vars);
        let result = self.run_residual_from(params, opts, Some(dirty));
        record_sweep(&opts.mode, &sw, &result, &mut span);
        result
    }

    /// Reset the factor→variable messages of the given factors to
    /// uniform, exactly as [`LbpEngine::reset_messages`] initializes
    /// them. Used when a factor is neutralized
    /// (`FactorGraph::neutralize_factor`) between runs: its messages
    /// still carry the retracted evidence, and while damping would
    /// anneal them toward uniform within `tol`, the explicit reset lands
    /// them *exactly* on the neutral factor's fixed point in one step.
    /// Variable→factor messages are left alone — [`LbpEngine::resume`]
    /// re-derives them for every variable a dirty factor touches.
    pub fn reset_factor_messages(&mut self, factors: &[u32]) {
        for &f in factors {
            for e in self.graph.factor_edges(f as usize) {
                let r = self.graph.edge_slots(e);
                let uniform = -(r.len() as f64).ln();
                self.s.fv[r].fill(uniform);
                self.s.touched.insert(self.graph.edge_var[e].0);
            }
        }
    }

    /// Reset all messages to uniform (keeps clamps).
    pub fn reset_messages(&mut self) {
        for e in 0..self.graph.num_edges() {
            let r = self.graph.edge_slots(e);
            let uniform = -(r.len() as f64).ln();
            self.s.fv[r.clone()].fill(uniform);
            self.s.vf[r].fill(uniform);
            self.s.touched.insert(self.graph.edge_var[e].0);
        }
        // Re-apply clamp evidence to vf messages.
        let clamped: Vec<(usize, u32)> =
            self.s.clamps.iter().enumerate().filter_map(|(v, c)| c.map(|s| (v, s))).collect();
        for (v, s) in clamped {
            self.write_clamped_var_messages(VarId(v as u32), s);
        }
    }

    /// Clamp variable `v` to `state` (or release with `None`).
    ///
    /// # Panics
    /// Panics if `state` is out of range.
    pub fn set_clamp(&mut self, v: VarId, state: Option<u32>) {
        if let Some(s) = state {
            assert!(s < self.graph.cardinality(v), "clamp state out of range");
        }
        self.s.clamps.resize(self.graph.num_vars(), None);
        self.s.clamps[v.idx()] = state;
    }

    /// The class masks of `schedule` and the scheduled flag of every
    /// node: recomputed when the schedule changes, otherwise extended to
    /// the nodes appended since the last run.
    fn sync_schedule(&mut self, schedule: &Schedule) {
        let graph = self.graph;
        let m = &mut self.s.masks;
        if m.schedule.as_ref() != Some(schedule) {
            let masks = |phases: &[Vec<u8>]| -> Vec<[bool; 256]> {
                phases
                    .iter()
                    .map(|classes| {
                        let mut mask = [false; 256];
                        for &c in classes {
                            mask[c as usize] = true;
                        }
                        mask
                    })
                    .collect()
            };
            *m = ScheduleMasks {
                schedule: Some(schedule.clone()),
                factor_phases: masks(&schedule.factor_phases),
                var_phases: masks(&schedule.var_phases),
                ..ScheduleMasks::default()
            };
        }
        let scheduled =
            |phases: &[[bool; 256]], class: u8| phases.iter().any(|p| p[class as usize]);
        for f in m.factor_active.len()..graph.num_factors() {
            let active = scheduled(&m.factor_phases, graph.factor_class(FactorId(f as u32)));
            m.factor_active.push(active);
            if active {
                m.sweep_messages += graph.factor_edges(f).len() as u64;
            }
        }
        for v in m.var_active.len()..graph.num_vars() {
            m.var_active.push(scheduled(&m.var_phases, graph.var_class(VarId(v as u32))));
        }
    }

    /// The per-phase factor/variable id lists of the synchronized
    /// schedule, for the synchronous sweeps.
    fn phase_selections(&self) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let (graph, m) = (self.graph, &self.s.masks);
        let select = |phases: &[[bool; 256]], len: usize, class: &dyn Fn(u32) -> u8| {
            phases
                .iter()
                .map(|mask| (0..len as u32).filter(|&i| mask[class(i) as usize]).collect())
                .collect()
        };
        (
            select(&m.factor_phases, graph.num_factors(), &|f| graph.factor_class(FactorId(f))),
            select(&m.var_phases, graph.num_vars(), &|v| graph.var_class(VarId(v))),
        )
    }

    /// Factor→variable messages recomputed by one update of factor `f`.
    #[inline]
    fn factor_message_count(&self, f: usize) -> u64 {
        self.graph.factor_edges(f).len() as u64
    }

    /// Run LBP to convergence (or `max_iters`) from uniform messages.
    /// Messages persist, so marginals and factor beliefs can be queried
    /// afterwards.
    ///
    /// Dispatches on [`LbpOptions::mode`]: synchronous sweeps or the
    /// residual-scheduled drain. Both run serially on the calling thread
    /// and update factors through the same fused batch.
    ///
    /// # Panics
    /// Panics if a weight in `params` is NaN or infinite, naming the
    /// group and index of the first one. Such a weight would otherwise
    /// turn messages into NaN, which normalization resets to uniform, and
    /// the run would report convergence on meaningless marginals.
    pub fn run(&mut self, params: &Params, opts: &LbpOptions) -> LbpResult {
        assert_finite_weights(params);
        let sw = Stopwatch::start();
        let mut span = jocl_obs::span!("lbp_sweep");
        let result = match opts.mode {
            ScheduleMode::Synchronous => self.run_synchronous(params, opts),
            ScheduleMode::Residual => self.run_residual_from(params, opts, None),
        };
        record_sweep(&opts.mode, &sw, &result, &mut span);
        result
    }

    /// Synchronous mode: full factor + variable sweeps per iteration,
    /// from uniform messages.
    fn run_synchronous(&mut self, params: &Params, opts: &LbpOptions) -> LbpResult {
        self.reset_messages();
        self.sync_schedule(&opts.schedule);
        let (factor_sel, var_sel) = self.phase_selections();
        let phase_messages: Vec<u64> = factor_sel
            .iter()
            .map(|sel| sel.iter().map(|&f| self.factor_message_count(f as usize)).sum())
            .collect();
        let mut result = LbpResult {
            iterations: 0,
            converged: false,
            residual: f64::INFINITY,
            message_updates: 0,
        };
        for iter in 0..opts.max_iters {
            let mut residual = 0.0f64;
            for (selected, messages) in factor_sel.iter().zip(&phase_messages) {
                let residuals = self.update_factor_batch(params, selected, opts);
                residual = residuals.into_iter().fold(residual, f64::max);
                result.message_updates += messages;
            }
            for selected in &var_sel {
                self.update_var_messages(selected);
            }
            result.iterations = iter + 1;
            result.residual = residual;
            if residual < opts.tol {
                result.converged = true;
                break;
            }
        }
        result
    }

    /// Residual mode: one priming sweep in schedule order, then a
    /// max-residual drain of factor blocks from a bucketed priority queue
    /// (see [`ScheduleMode::Residual`]).
    ///
    /// Every decision (batch contents, variable update order) is a pure
    /// function of the push/pop history, so the trajectory — and
    /// therefore every message and counter — is deterministic.
    ///
    /// With `prime: None`, the cold path: reset, one full priming sweep
    /// in schedule order, then the drain. With `prime: Some(dirty)`, the
    /// warm path of [`LbpEngine::resume`]: no reset, priming restricted
    /// to the scheduled dirty factors and their variables, and the drain
    /// starts from the priorities that priming produced — factors
    /// outside the dirty set's reach are never recomputed. Either way
    /// the run starts from zero priorities and an empty queue.
    fn run_residual_from(
        &mut self,
        params: &Params,
        opts: &LbpOptions,
        prime: Option<&[u32]>,
    ) -> LbpResult {
        if prime.is_none() {
            self.reset_messages();
        }
        self.sync_schedule(&opts.schedule);
        self.s.drain.queue.set_tol(opts.tol);
        let graph = self.graph;
        // The messages one full sweep over the scheduled factors costs;
        // budget the drain to `max_iters` sweep-equivalents so both modes
        // get the same worst-case work bound.
        let sweep_messages = self.s.masks.sweep_messages;
        let budget = (opts.max_iters as u64).saturating_mul(sweep_messages);
        let batch_cap = RESIDUAL_BATCH;
        let mut batch: Vec<u32> = Vec::with_capacity(batch_cap);
        let mut dirty_vars: Vec<u32> = Vec::new();
        let mut result = LbpResult {
            iterations: 0,
            converged: false,
            residual: f64::INFINITY,
            message_updates: 0,
        };
        // Damping makes a committed message keep moving toward its
        // input-stationary target even when the inputs are frozen: the
        // next update shifts it by ~λ× this update's shift. Re-enqueueing
        // each updated factor with that geometric tail keeps the drain
        // running until the *committed* messages are stationary within
        // `tol` — the same criterion the synchronous sweeps use.
        let damping_tail = opts.damping.clamp(0.0, 1.0);
        // Priming candidates, ascending: every factor and variable on the
        // cold path; on the warm path the scheduled dirty factors and
        // their variables.
        let (factors, vars): (Vec<u32>, Vec<u32>) = match prime {
            None => {
                ((0..graph.num_factors() as u32).collect(), (0..graph.num_vars() as u32).collect())
            }
            Some(dirty) => {
                let active = &self.s.masks.factor_active;
                let mut factors: Vec<u32> =
                    dirty.iter().copied().filter(|&f| active[f as usize]).collect();
                factors.sort_unstable();
                factors.dedup();
                let mut vars: Vec<u32> = factors
                    .iter()
                    .flat_map(|&f| graph.factor_vars(FactorId(f)))
                    .map(|v| v.0)
                    .collect();
                vars.sort_unstable();
                vars.dedup();
                (factors, vars)
            }
        };
        // Priming sweep: exactly the synchronous engine's first
        // iteration (restricted to the dirty set on the warm path),
        // so every scheduled-and-dirty message is computed at least
        // once and the paper's phase order shapes the starting point.
        for phase in 0..self.s.masks.factor_phases.len() {
            let mask = self.s.masks.factor_phases[phase];
            let selected: Vec<u32> = factors
                .iter()
                .copied()
                .filter(|&f| mask[graph.factor_class(FactorId(f)) as usize])
                .collect();
            let residuals = self.update_factor_batch(params, &selected, opts);
            for (&f, &r_f) in selected.iter().zip(&residuals) {
                let tail = damping_tail * r_f;
                if tail > 0.0 {
                    self.s.drain.raise(f, tail);
                }
            }
            result.message_updates +=
                selected.iter().map(|&f| self.factor_message_count(f as usize)).sum::<u64>();
        }
        for phase in 0..self.s.masks.var_phases.len() {
            let mask = self.s.masks.var_phases[phase];
            for &v in &vars {
                if mask[graph.var_class(VarId(v)) as usize] {
                    self.residual_var_update(v);
                }
            }
        }
        // Drain: pop the highest-priority factor blocks, recompute
        // them, propagate the resulting variable-message changes back
        // into the queue.
        loop {
            batch.clear();
            let drain = &mut self.s.drain;
            drain.queue.pop_batch(batch_cap, &mut drain.prio, &mut batch);
            if batch.is_empty() {
                result.converged = true;
                break;
            }
            if result.message_updates >= budget {
                break;
            }
            let residuals = self.update_factor_batch(params, &batch, opts);
            result.residual = residuals.iter().copied().fold(0.0, f64::max);
            for (&f, &r_f) in batch.iter().zip(&residuals) {
                let tail = damping_tail * r_f;
                if tail > 0.0 {
                    self.s.drain.raise(f, tail);
                }
            }
            result.message_updates +=
                batch.iter().map(|&f| self.factor_message_count(f as usize)).sum::<u64>();
            // Dirty propagation through the variable adjacency: only
            // *scheduled* variables incident to the updated blocks can
            // move (unscheduled classes stay frozen, as in synchronous
            // mode).
            dirty_vars.clear();
            for &f in &batch {
                for v in graph.factor_vars(FactorId(f)) {
                    if self.s.masks.var_active[v.idx()] {
                        dirty_vars.push(v.0);
                    }
                }
            }
            dirty_vars.sort_unstable();
            dirty_vars.dedup();
            for &v in &dirty_vars {
                self.residual_var_update(v);
            }
        }
        result.iterations = result.message_updates.div_ceil(sweep_messages.max(1)) as usize;
        if result.converged {
            // Largest remaining priority: a bound on any pending change.
            result.residual = self.s.drain.max_priority();
        }
        // Leave the state as a fresh one: the next run (or a restored
        // copy of these messages) must not inherit this run's leftover
        // priorities or queued factors.
        self.s.drain.reset();
        result
    }

    /// Recompute the outgoing messages of variable `v` (residual mode),
    /// accumulate each edge's change into the receiving factor's priority,
    /// and (re-)enqueue factors whose priority reaches `tol`. Clamped
    /// variables are skipped: their evidence messages never change.
    ///
    /// Only variables selected by the schedule are ever passed in, and
    /// only active factors are raised, so unscheduled classes stay frozen
    /// exactly as in synchronous mode.
    fn residual_var_update(&mut self, v: u32) {
        if self.s.clamp(v as usize).is_some() {
            return;
        }
        let graph = self.graph;
        let s = &mut self.s;
        let (active, drain) = (&s.masks.factor_active, &mut s.drain);
        var_messages_kernel(graph, VarId(v), &s.fv, &mut s.vf, &mut s.var_total, |e, d| {
            let g = graph.edge_factor[e];
            if d > 0.0 && active[g.idx()] {
                drain.raise(g.0, d);
            }
        });
    }

    /// Fused compute + commit of a batch of factor blocks — one
    /// synchronous phase or one drained residual batch; returns the
    /// committed message residual of each factor, in batch order. Each
    /// edge's commit damps the raw message against the committed one,
    /// normalizes it and measures its change in one [`normalize_into`]
    /// pass straight into `fv`, and marks the edge's variable touched.
    /// The kernels read only `vf` and each factor commits only its own
    /// `fv` edges, so updating a batch factor by factor yields exactly
    /// the messages of a compute-all-then-commit-all sweep.
    fn update_factor_batch(
        &mut self,
        params: &Params,
        batch: &[u32],
        opts: &LbpOptions,
    ) -> Vec<f64> {
        let lambda = opts.damping;
        let mut scratch = std::mem::take(&mut self.s.scratch);
        let mut residuals = Vec::with_capacity(batch.len());
        for &f in batch {
            self.factor_messages_kernel(params, f as usize, &mut scratch);
            let mut residual = 0.0f64;
            let mut at = 0;
            for e in self.graph.factor_edges(f as usize) {
                let r = self.graph.edge_slots(e);
                let raw = &scratch.acc[at..at + r.len()];
                at += r.len();
                let delta = normalize_into(&mut self.s.fv[r], |i, old| {
                    lambda * old + (1.0 - lambda) * raw[i]
                });
                residual = residual.max(delta);
                self.s.touched.insert(self.graph.edge_var[e].0);
            }
            residuals.push(residual);
        }
        self.s.scratch = scratch;
        residuals
    }

    /// Compute the raw (undamped, unnormalized) new messages of one
    /// factor into `scratch.acc`, its slots' messages concatenated in
    /// slot order.
    ///
    /// A unary factor's message is its log-potential. Larger factors are
    /// evaluated in the linear domain: [`Scratch::load_incoming`] turns
    /// each incoming message into `p_j(x) = exp(vf_j(x) − max vf_j)` and
    /// its total `L_j = Σ_x p_j(x)` (one `exp` per incoming state other
    /// than the row's maximum, whose `p_j` is the literal `1.0`), then
    /// [`Scratch::accumulate`] adds `w(c) · Π_{j≠k} p_j(c_j)` into
    /// `acc[k][c_k]` for every slot `k` of each visited configuration `c`,
    /// and the message is `ln acc`. Every shift (`max vf_j`, `max log φ`,
    /// the `β·low` base of a two-level table) is a per-slot additive
    /// constant of the raw message, which the commit's damping and
    /// normalization cancel, so the constants are dropped. An entry whose
    /// sum rounds to 0 is written as [`LOG_ZERO`].
    ///
    /// * Two-level tables with `Δ = β·(high − low) > 0` visit only their
    ///   `high_configs` (with `w = 1`) and combine per slot and state:
    ///   `acc = e^{−Δ}·Π_{j≠k} L_j + (1 − e^{−Δ})·acc_high`, both terms
    ///   non-negative, at `O(arity·|high|)`.
    /// * Every other factor, including a two-level table with `Δ ≤ 0`
    ///   (where the sparse form would subtract the high mass from the
    ///   total and cancel catastrophically), visits every configuration
    ///   with `w(c) = exp(log φ(c) − max log φ)` (again `1.0` without an
    ///   `exp` at the maximum).
    fn factor_messages_kernel(&self, params: &Params, f: usize, scratch: &mut Scratch) {
        let potential = self.graph.factor_potential(FactorId(f as u32));
        let edges = self.graph.factor_edges(f);
        if edges.len() == 1 {
            potential.log_phi_into(params, &mut scratch.acc);
            return;
        }
        scratch.load_incoming(&self.s.vf, edges.clone().map(|e| self.graph.edge_slots(e)));
        let sparse = match potential {
            Potential::TwoLevelScores { group, high_configs, high, low, .. } => {
                let delta = params.group(*group)[0] * (high - low);
                (delta > 0.0).then_some((delta, high_configs))
            }
            _ => None,
        };
        if let Some((delta, high_configs)) = sparse {
            for &c in high_configs {
                scratch.accumulate(c as usize, 1.0);
            }
            let (w_all, w_high) = ((-delta).exp(), -(-delta).exp_m1());
            for k in 0..edges.len() {
                let others: f64 = scratch
                    .totals
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .map(|(_, l)| l)
                    .product();
                let base = w_all * others;
                for a in &mut scratch.acc[scratch.starts[k]..scratch.starts[k + 1]] {
                    *a = base + w_high * *a;
                }
            }
        } else {
            potential.log_phi_into(params, &mut scratch.table);
            let max = scratch.table.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for c in 0..scratch.table.len() {
                let w = exp_shifted(scratch.table[c], max);
                scratch.accumulate(c, w);
            }
        }
        for a in &mut scratch.acc {
            *a = if *a > 0.0 { a.ln() } else { LOG_ZERO };
        }
    }

    /// Update variable→factor messages for the variables in `selected`
    /// (synchronous sweeps and warm priming).
    fn update_var_messages(&mut self, selected: &[u32]) {
        for &v in selected {
            match self.s.clamp(v as usize) {
                Some(state) => self.write_clamped_var_messages(VarId(v), state),
                None => {
                    let s = &mut self.s;
                    var_messages_kernel(
                        self.graph,
                        VarId(v),
                        &s.fv,
                        &mut s.vf,
                        &mut s.var_total,
                        |_, _| {},
                    );
                }
            }
        }
    }

    fn write_clamped_var_messages(&mut self, v: VarId, state: u32) {
        for &e in &self.graph.var_edges[v.idx()] {
            let r = self.graph.edge_slots(e as usize);
            for (i, x) in self.s.vf[r].iter_mut().enumerate() {
                *x = if i == state as usize { 0.0 } else { LOG_ZERO };
            }
        }
    }

    /// Marginal of one variable from the current messages.
    pub fn var_marginal(&self, v: VarId) -> Vec<f64> {
        if let Some(s) = self.s.clamp(v.idx()) {
            let mut p = vec![0.0; self.graph.cardinality(v) as usize];
            p[s as usize] = 1.0;
            return p;
        }
        let card = self.graph.cardinality(v) as usize;
        let mut log_b = vec![0.0f64; card];
        for &e in &self.graph.var_edges[v.idx()] {
            let r = self.graph.edge_slots(e as usize);
            for (b, x) in log_b.iter_mut().zip(&self.s.fv[r]) {
                *b += *x;
            }
        }
        to_probs(&log_b)
    }

    /// All marginals.
    pub fn marginals(&self) -> Marginals {
        Marginals {
            probs: (0..self.graph.num_vars()).map(|v| self.var_marginal(VarId(v as u32))).collect(),
        }
    }

    /// Bring cached `marginals` up to date with the messages: recompute
    /// every variable whose incoming messages were written since the last
    /// refresh (by a run, a reset or growth) and every variable
    /// `marginals` does not cover yet — or, with `all`, every variable.
    /// Any other variable's incoming messages kept their bits, so its
    /// cached marginal is exactly what a recompute would give. Clears the
    /// touched set and returns the number of marginals recomputed.
    ///
    /// # Panics
    /// Panics if `marginals` covers more variables than the graph.
    pub fn refresh_marginals(&mut self, marginals: &mut Marginals, all: bool) -> usize {
        let num_vars = self.graph.num_vars();
        let covered = marginals.probs.len();
        assert!(covered <= num_vars, "{covered} cached marginals for {num_vars} variables");
        marginals.probs.resize(num_vars, Vec::new());
        let refreshed = if all {
            for (v, m) in marginals.probs.iter_mut().enumerate() {
                *m = self.var_marginal(VarId(v as u32));
            }
            num_vars
        } else {
            let stale = self.s.touched.ids.iter().map(|&v| v as usize).filter(|&v| v < covered);
            let mut refreshed = 0;
            for v in stale.chain(covered..num_vars) {
                marginals.probs[v] = self.var_marginal(VarId(v as u32));
                refreshed += 1;
            }
            refreshed
        };
        self.s.touched.clear();
        refreshed
    }

    /// Belief (probability per flat configuration) of factor `f`:
    /// `b_f(c) ∝ φ(c) · Π_v m_{v→f}(c_v)`. Used to compute the feature
    /// expectations of the learning gradient (paper Eq. 6). `out` is
    /// overwritten with the belief, `scratch` is reused, so a loop over
    /// every factor allocates nothing once the buffers have grown.
    pub fn factor_belief_into(
        &self,
        params: &Params,
        f: FactorId,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        self.graph.factor_potential(f).log_phi_into(params, out);
        // Add the incoming messages under a mixed-radix counter over the
        // slots' arena indexes (slot 0 fastest): `starts` holds each
        // slot's first index, `states` its current one.
        scratch.starts.clear();
        scratch.cards.clear();
        for e in self.graph.factor_edges(f.idx()) {
            let r = self.graph.edge_slots(e);
            scratch.starts.push(r.start);
            scratch.cards.push(r.len());
        }
        scratch.states.clear();
        scratch.states.extend_from_slice(&scratch.starts);
        for lp in out.iter_mut() {
            for &i in &scratch.states {
                *lp += self.s.vf[i];
            }
            for k in 0..scratch.states.len() {
                scratch.states[k] += 1;
                if scratch.states[k] < scratch.starts[k] + scratch.cards[k] {
                    break;
                }
                scratch.states[k] = scratch.starts[k];
            }
        }
        let z = logsumexp(out);
        if z == f64::NEG_INFINITY {
            let uniform = 1.0 / out.len() as f64;
            out.fill(uniform);
            return;
        }
        for x in out.iter_mut() {
            *x = (*x - z).exp();
        }
    }
}

/// The one variable→factor kernel, shared by the residual drain and the
/// synchronous sweeps: each outgoing message of an unclamped variable
/// `v` is the per-state total of its incoming factor→variable messages
/// minus the edge's own, normalized and written in one
/// [`normalize_into`] pass. `on_edge(e, Δ)` receives each edge's
/// largest absolute change, in the variable's (ascending) edge order.
fn var_messages_kernel(
    graph: &FactorGraph,
    v: VarId,
    fv: &[f64],
    vf: &mut [f64],
    total: &mut Vec<f64>,
    mut on_edge: impl FnMut(usize, f64),
) {
    let adj = &graph.var_edges[v.idx()];
    total.clear();
    total.resize(graph.cardinality(v) as usize, 0.0);
    for &e in adj {
        for (t, x) in total.iter_mut().zip(&fv[graph.edge_slots(e as usize)]) {
            *t += *x;
        }
    }
    for &e in adj {
        let r = graph.edge_slots(e as usize);
        let fv = &fv[r.clone()];
        let delta = normalize_into(&mut vf[r], |i, _| total[i] - fv[i]);
        on_edge(e as usize, delta);
    }
}

/// The messages of an [`LbpState`], encoded for keeping outside it
/// ([`LbpState::export_messages`] / [`LbpState::import_messages`]): what
/// a session snapshot persists, and what a quantized session holds
/// between deltas. The snapshot is tied to the edge enumeration, not to
/// a borrow of the graph. Each arena is stored behind the
/// [`MessageStore`] seam — exact `f64` or quantized (see
/// [`crate::store`]).
#[derive(Debug, Clone)]
pub struct LbpMessages {
    /// factor→variable messages (log domain), factor-major arena.
    fv: MessageArena,
    /// variable→factor messages, same arena layout.
    vf: MessageArena,
    /// Number of edges the snapshot covers.
    edges: usize,
}

impl LbpMessages {
    /// Number of factor-slot edges covered by the snapshot.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// The committed factor→variable arena (for persistence: serialize
    /// the stored representation bit-exactly — a restored session must
    /// resume from the *identical* committed state).
    pub fn fv(&self) -> &MessageArena {
        &self.fv
    }

    /// The committed variable→factor arena.
    pub fn vf(&self) -> &MessageArena {
        &self.vf
    }

    /// Which store the committed arenas use.
    pub fn store(&self) -> MessageStore {
        match self.fv {
            MessageArena::Exact(_) => MessageStore::Exact,
            MessageArena::Quantized(_) => MessageStore::Quantized,
        }
    }

    /// Heap bytes resident in the two committed arenas.
    pub fn heap_bytes(&self) -> usize {
        self.fv.heap_bytes() + self.vf.heap_bytes()
    }

    /// Rebuild a snapshot from persisted state. The two arenas must have
    /// equal length and matching representation (they share one edge
    /// layout); the edge count is validated against the graph when the
    /// snapshot is imported into an engine.
    pub fn import_state(fv: MessageArena, vf: MessageArena, edges: usize) -> Result<Self, String> {
        if fv.len() != vf.len() {
            return Err(format!(
                "message arenas disagree: {} fv values vs {} vf values",
                fv.len(),
                vf.len()
            ));
        }
        if std::mem::discriminant(&fv) != std::mem::discriminant(&vf) {
            return Err("message arenas disagree on their store representation".into());
        }
        if edges > fv.len() {
            return Err(format!("{edges} edges cannot exceed the {} arena slots", fv.len()));
        }
        Ok(Self { fv, vf, edges })
    }

    /// Bitwise equality of two snapshots — the restart-parity criterion,
    /// defined over the **stored representation** (value equality would
    /// also accept `-0.0 == 0.0` and reject equal NaNs; restart parity
    /// means the restored process resumes from the *same bits*).
    pub fn bitwise_eq(&self, other: &LbpMessages) -> bool {
        self.edges == other.edges && self.fv.bitwise_eq(&other.fv) && self.vf.bitwise_eq(&other.vf)
    }
}

/// A bucketed max-priority queue over factor ids with O(1) amortized push
/// and pop, used by [`ScheduleMode::Residual`].
///
/// Priorities are message residuals ≥ `tol`; bucket `b` holds priorities
/// in `[tol·2^b, tol·2^(b+1))`, so a pop from the highest non-empty
/// bucket is within 2× of the true maximum — accurate enough for
/// scheduling, and immune to the heap's O(log n) and float-comparison
/// ordering costs. Stale entries (superseded by a later push or an
/// earlier pop of the same factor) are invalidated lazily via per-factor
/// stamps: priorities only grow between pops (residual bumps are
/// absolute changes), so an entry is only ever superseded upward and the
/// scan never revisits a bucket it has emptied.
#[derive(Clone)]
struct BucketQueue {
    tol: f64,
    buckets: Vec<Vec<(u32, u32)>>,
    /// Stamp a queue entry must match to be valid.
    stamp: Vec<u32>,
    /// Whether the factor currently has a valid entry.
    queued: Vec<bool>,
    /// Highest bucket index that may be non-empty.
    highest: usize,
}

impl BucketQueue {
    /// Buckets cover `tol·2^0 .. tol·2^64` — with `tol ≥ 1e-12` that is
    /// far beyond any achievable log-message residual.
    const NUM_BUCKETS: usize = 64;

    fn new(tol: f64, num_factors: usize) -> Self {
        let mut queue = Self {
            tol: 0.0,
            buckets: vec![Vec::new(); Self::NUM_BUCKETS],
            stamp: vec![0; num_factors],
            queued: vec![false; num_factors],
            highest: 0,
        };
        queue.set_tol(tol);
        queue
    }

    fn set_tol(&mut self, tol: f64) {
        // Guard against a non-positive tolerance: bucket on a tiny
        // positive floor instead of dividing by zero.
        self.tol = if tol > 0.0 { tol } else { f64::MIN_POSITIVE };
    }

    /// Cover factors `0..num_factors`.
    fn grow(&mut self, num_factors: usize) {
        self.stamp.resize(num_factors, 0);
        self.queued.resize(num_factors, false);
    }

    /// Drop every entry and free the buckets (a drain's stale entries
    /// can outnumber the factors; a resident queue must not keep them).
    /// Stamps are kept: an entry is valid only against the stamp it was
    /// pushed with, so once the buckets are empty their values no longer
    /// matter.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            for &(f, _) in bucket.iter() {
                self.queued[f as usize] = false;
            }
            *bucket = Vec::new();
        }
        self.highest = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.capacity() * 8).sum::<usize>()
            + self.stamp.capacity() * 4
            + self.queued.capacity()
    }

    /// Bucket index of priority `p >= tol`: `⌊log2(p/tol)⌋` clamped to
    /// `0..NUM_BUCKETS`, read off the exponent bits of `q = p/tol`.
    ///
    /// The reference is the libm expression
    /// `((p/tol).log2().max(0.0) as usize).min(NUM_BUCKETS − 1)`, and the
    /// bucket — hence every pop order — must be bitwise what it gives.
    /// Away from a power of two, `log2(q)` is at least `2^-41` from an
    /// integer, far beyond libm's error, so its floor is the exponent.
    /// Within `2^-40` of a power of two (mantissa field within `2^12` of
    /// either end) libm's rounding could decide the floor, so those `q`
    /// take the libm expression itself; so do `q < 1` and NaN (bucket 0).
    #[inline]
    fn bucket_of(&self, p: f64) -> usize {
        const MANTISSA: u64 = (1 << 52) - 1;
        const NEAR: u64 = 1 << 12;
        let q = p / self.tol;
        let bits = q.to_bits();
        if q >= 1.0 && (NEAR..=MANTISSA - NEAR).contains(&(bits & MANTISSA)) {
            // q ≥ 1 with a mid mantissa is a finite normal number (inf's
            // mantissa is 0), so its biased exponent is at least 1023.
            return (((bits >> 52) - 1023) as usize).min(Self::NUM_BUCKETS - 1);
        }
        (q.log2().max(0.0) as usize).min(Self::NUM_BUCKETS - 1)
    }

    /// Record that factor `f`'s priority changed `old → new`. Enqueues or
    /// re-buckets as needed; priorities below `tol` are never queued.
    fn update(&mut self, f: u32, old: f64, new: f64) {
        if new < self.tol {
            return;
        }
        let b = self.bucket_of(new);
        if self.queued[f as usize] && old >= self.tol && self.bucket_of(old) == b {
            // The existing entry already sits in the right bucket.
            return;
        }
        self.stamp[f as usize] = self.stamp[f as usize].wrapping_add(1);
        self.queued[f as usize] = true;
        self.buckets[b].push((f, self.stamp[f as usize]));
        self.highest = self.highest.max(b);
    }

    /// Pop up to `cap` distinct factors, highest bucket first, clearing
    /// their priorities. Deterministic: pure function of the push/pop
    /// history.
    fn pop_batch(&mut self, cap: usize, prio: &mut [f64], out: &mut Vec<u32>) {
        while out.len() < cap {
            match self.buckets[self.highest].pop() {
                None => {
                    if self.highest == 0 {
                        return;
                    }
                    self.highest -= 1;
                }
                Some((f, s)) => {
                    if !self.queued[f as usize] || self.stamp[f as usize] != s {
                        continue; // stale entry, superseded by a later push
                    }
                    self.queued[f as usize] = false;
                    prio[f as usize] = 0.0;
                    out.push(f);
                }
            }
        }
    }
}

/// Reusable scratch buffers for the factor kernels (one per engine) and
/// [`LbpEngine::factor_belief_into`] (one per caller).
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// Cardinality of each slot's variable.
    cards: Vec<usize>,
    /// Start of each slot's region in `p` and `acc` (`arity + 1`
    /// entries); the belief's counter keeps arena offsets here instead.
    starts: Vec<usize>,
    /// Shifted linear incoming messages `p_j(x)`, slots concatenated.
    p: Vec<f64>,
    /// Per-slot totals `L_j = Σ_x p_j(x)`.
    totals: Vec<f64>,
    /// Linear-domain output accumulators, laid out like `p`; a kernel
    /// leaves its raw log-domain messages here.
    acc: Vec<f64>,
    /// Index of each slot's state in the current configuration: into
    /// `p`/`acc` for the kernels, into the arena for the belief.
    states: Vec<usize>,
    /// `Π_{j<k} p_j(c_j)` times the configuration weight, per slot `k`.
    prefix: Vec<f64>,
    /// One value per flat configuration: `log φ(c)`.
    table: Vec<f64>,
}

impl Scratch {
    /// Load one factor's incoming messages, one edge range of `vf` per
    /// slot: `p_j(x) = exp(vf_j(x) − max_x vf_j)` (so every slot's
    /// largest entry is exactly 1, written as the literal `1.0` without
    /// an `exp` — see [`exp_shifted`]), their totals `L_j`, and zeroed
    /// accumulators.
    fn load_incoming(&mut self, vf: &[f64], slots: impl Iterator<Item = std::ops::Range<usize>>) {
        self.cards.clear();
        self.starts.clear();
        self.p.clear();
        self.totals.clear();
        for r in slots {
            let row = &vf[r];
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            self.starts.push(self.p.len());
            self.cards.push(row.len());
            self.p.extend(row.iter().map(|&x| exp_shifted(x, max)));
            self.totals.push(self.p[self.p.len() - row.len()..].iter().sum());
        }
        self.starts.push(self.p.len());
        self.acc.clear();
        self.acc.resize(self.p.len(), 0.0);
        self.states.resize(self.cards.len(), 0);
        self.prefix.resize(self.cards.len(), 0.0);
    }

    /// `acc[k][c_k] += w · Π_{j≠k} p_j(c_j)` for every slot `k` of flat
    /// configuration `c`, decoded once by mixed radix (slot 0 fastest).
    /// Prefix and suffix products exclude each slot without dividing, so
    /// a zero `p` never turns into a NaN.
    ///
    /// Arity 3 (every production factor is unary or ternary) takes
    /// [`Scratch::accumulate3`]; other arities take the generic loop.
    #[inline]
    fn accumulate(&mut self, c: usize, w: f64) {
        match (self.cards.len(), u32::try_from(c)) {
            (3, Ok(c)) => self.accumulate3(c, w),
            _ => self.accumulate_any(c, w),
        }
    }

    /// [`Scratch::accumulate`] for arity 3: the generic loop's decode,
    /// products and additions in the same order, as straight-line code
    /// with `u32` division. `c` is below the table size (the product of
    /// the cardinalities), so the last slot's state needs no `%`. The
    /// generic suffix starts at `1.0`, and `1.0 · x` is `x`, so the slots
    /// receive `(w·p0)·p1`, `(w·p0)·p2` and `w·(p2·p1)`.
    #[inline]
    fn accumulate3(&mut self, c: u32, w: f64) {
        let (c0, c1) = (self.cards[0] as u32, self.cards[1] as u32);
        let q0 = c / c0;
        let q1 = q0 / c1;
        debug_assert!((q1 as usize) < self.cards[2], "configuration {c} out of range");
        let i0 = self.starts[0] + (c - q0 * c0) as usize;
        let i1 = self.starts[1] + (q0 - q1 * c1) as usize;
        let i2 = self.starts[2] + q1 as usize;
        let (p0, p1, p2) = (self.p[i0], self.p[i1], self.p[i2]);
        let prefix = w * p0;
        self.acc[i2] += prefix * p1;
        self.acc[i1] += prefix * p2;
        self.acc[i0] += w * (p2 * p1);
    }

    /// The generic mixed-radix [`Scratch::accumulate`], any arity.
    #[inline]
    fn accumulate_any(&mut self, mut c: usize, w: f64) {
        let mut prefix = w;
        for k in 0..self.cards.len() {
            let card = self.cards[k];
            let i = self.starts[k] + c % card;
            c /= card;
            self.states[k] = i;
            self.prefix[k] = prefix;
            prefix *= self.p[i];
        }
        let mut suffix = 1.0;
        for k in (0..self.cards.len()).rev() {
            let i = self.states[k];
            self.acc[i] += self.prefix[k] * suffix;
            suffix *= self.p[i];
        }
    }
}

/// One-shot convenience: build an engine, run, return marginals + stats.
pub fn run_lbp(
    graph: &FactorGraph,
    params: &Params,
    clamps: &[(VarId, u32)],
    opts: &LbpOptions,
) -> (Marginals, LbpResult) {
    let mut eng = LbpEngine::new(graph);
    for &(v, s) in clamps {
        eng.set_clamp(v, Some(s));
    }
    let res = eng.run(params, opts);
    (eng.marginals(), res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Potential;
    use crate::logspace::log_normalize;

    /// Single binary variable with a unary factor preferring state 1 with
    /// log-odds 1.0: P(1) = sigmoid(1.0).
    #[test]
    fn single_unary_factor_matches_sigmoid() {
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[v], Potential::Scores { group: grp, scores: vec![0.0, 1.0] }, 0);
        let opts = LbpOptions { tol: 1e-12, max_iters: 500, ..Default::default() };
        let (m, res) = run_lbp(&g, &params, &[], &opts);
        assert!(res.converged);
        let expected = 1.0 / (1.0 + (-1.0f64).exp());
        assert!((m.prob(v, 1) - expected).abs() < 1e-9, "{}", m.prob(v, 1));
    }

    /// Two-variable attractive chain: exact marginals by hand.
    #[test]
    fn two_var_chain_exact() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let unary = params.add_group_with(vec![1.0]);
        let pair = params.add_group_with(vec![1.0]);
        // φ_a = [0, 0.8] (prefers 1), pairwise agreement potential.
        g.add_factor(&[a], Potential::Scores { group: unary, scores: vec![0.0, 0.8] }, 0);
        g.add_factor(
            &[a, b],
            Potential::Scores { group: pair, scores: vec![0.5, 0.0, 0.0, 0.5] },
            0,
        );
        let opts = LbpOptions { tol: 1e-12, max_iters: 500, ..Default::default() };
        let (m, res) = run_lbp(&g, &params, &[], &opts);
        assert!(res.converged);
        // Brute force: p(a,b) ∝ exp(0.8·[a=1]) · exp(0.5·[a=b])
        let w = |a_s: usize, b_s: usize| -> f64 {
            ((0.8 * a_s as f64) + if a_s == b_s { 0.5 } else { 0.0 }).exp()
        };
        let z: f64 = [w(0, 0), w(0, 1), w(1, 0), w(1, 1)].iter().sum();
        let pa1 = (w(1, 0) + w(1, 1)) / z;
        let pb1 = (w(0, 1) + w(1, 1)) / z;
        assert!((m.prob(a, 1) - pa1).abs() < 1e-6, "{} vs {pa1}", m.prob(a, 1));
        assert!((m.prob(b, 1) - pb1).abs() < 1e-6);
    }

    #[test]
    fn clamping_propagates_through_chain() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![2.0]);
        // Strong agreement factor.
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![1.0, 0.0, 0.0, 1.0] },
            0,
        );
        let (m, _) = run_lbp(&g, &params, &[(a, 1)], &LbpOptions::default());
        assert_eq!(m.prob(a, 1), 1.0);
        assert!(m.prob(b, 1) > 0.8, "{}", m.prob(b, 1));
    }

    #[test]
    fn disconnected_variable_is_uniform() {
        let mut g = FactorGraph::new();
        let a = g.add_var(3);
        let _b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[a], Potential::Scores { group: grp, scores: vec![0.0, 0.0, 1.0] }, 0);
        let (m, _) = run_lbp(&g, &params, &[], &LbpOptions::default());
        let pb = m.of(VarId(1));
        assert!((pb[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phased_schedule_matches_synchronous_fixed_point() {
        // On a tree both schedules converge to the same (exact) marginals.
        let mut g = FactorGraph::new();
        let a = g.add_var_with_class(2, 0);
        let b = g.add_var_with_class(2, 1);
        let c = g.add_var_with_class(2, 1);
        let mut params = Params::new();
        let g1 = params.add_group_with(vec![1.0]);
        let g2 = params.add_group_with(vec![0.7]);
        g.add_factor(&[a], Potential::Scores { group: g1, scores: vec![0.0, 0.6] }, 0);
        g.add_factor(&[a, b], Potential::Scores { group: g2, scores: vec![1.0, 0.0, 0.0, 1.0] }, 1);
        g.add_factor(&[a, c], Potential::Scores { group: g2, scores: vec![0.0, 1.0, 1.0, 0.0] }, 2);
        let sync = run_lbp(&g, &params, &[], &LbpOptions::default()).0;
        let phased = run_lbp(
            &g,
            &params,
            &[],
            &LbpOptions {
                schedule: Schedule {
                    factor_phases: vec![vec![0], vec![1], vec![2]],
                    var_phases: vec![vec![0], vec![1]],
                },
                ..LbpOptions::default()
            },
        )
        .0;
        for v in [a, b, c] {
            assert!((sync.prob(v, 1) - phased.prob(v, 1)).abs() < 1e-6);
        }
    }

    #[test]
    fn factor_belief_sums_to_one() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        let f = g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![0.1, 0.4, 0.3, 0.2, 0.0, 0.5] },
            0,
        );
        let mut eng = LbpEngine::new(&g);
        eng.run(&params, &LbpOptions::default());
        let belief = |eng: &LbpEngine<'_>, f: FactorId| {
            let mut out = Vec::new();
            eng.factor_belief_into(&params, f, &mut Scratch::default(), &mut out);
            out
        };
        let belief_f = belief(&eng, f);
        assert_eq!(belief_f.len(), 6);
        assert!((belief_f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(belief_f.iter().all(|&p| p >= 0.0));

        // Reused buffers (grown by a larger factor first) give the same
        // beliefs, bitwise, as fresh ones.
        let u = g.add_factor(&[b], Potential::Scores { group: grp, scores: vec![0.0; 3] }, 0);
        let mut eng = LbpEngine::new(&g);
        eng.run(&params, &LbpOptions::default());
        let (mut scratch, mut out) = (Scratch::default(), Vec::new());
        for fid in [f, u, f] {
            eng.factor_belief_into(&params, fid, &mut scratch, &mut out);
            let fresh = belief(&eng, fid);
            assert_eq!(out.len(), fresh.len());
            assert!(out.iter().zip(&fresh).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn map_state_picks_argmax() {
        let mut g = FactorGraph::new();
        let v = g.add_var(3);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[v], Potential::Scores { group: grp, scores: vec![0.0, 2.0, 1.0] }, 0);
        let (m, _) = run_lbp(&g, &params, &[], &LbpOptions::default());
        assert_eq!(m.map_state(v), 1);
    }

    /// A 30-var chain with one strong unary at the head: residual
    /// scheduling must reach the synchronous fixed point while touching
    /// fewer messages once the far end has converged.
    fn chain_graph() -> (FactorGraph, Params, Vec<VarId>) {
        let mut g = FactorGraph::new();
        let vars: Vec<VarId> = (0..30).map(|_| g.add_var(2)).collect();
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[vars[0]], Potential::Scores { group: grp, scores: vec![0.0, 1.5] }, 0);
        for w in vars.windows(2) {
            g.add_factor(
                &[w[0], w[1]],
                Potential::Scores { group: grp, scores: vec![0.6, 0.0, 0.0, 0.6] },
                0,
            );
        }
        (g, params, vars)
    }

    #[test]
    fn residual_matches_synchronous_on_chain() {
        let (g, params, vars) = chain_graph();
        let sync_opts = LbpOptions { tol: 1e-10, max_iters: 500, ..Default::default() };
        let (ms, rs) = run_lbp(&g, &params, &[], &sync_opts);
        let res_opts = LbpOptions { mode: ScheduleMode::Residual, ..sync_opts };
        let (mr, rr) = run_lbp(&g, &params, &[], &res_opts);
        assert!(rs.converged && rr.converged);
        assert!(rr.residual < sync_opts.tol);
        for &v in &vars {
            assert!(
                (ms.prob(v, 1) - mr.prob(v, 1)).abs() < 1e-8,
                "var {v:?}: sync {} vs residual {}",
                ms.prob(v, 1),
                mr.prob(v, 1)
            );
        }
        assert!(rr.message_updates > 0);
        assert!(
            rr.message_updates < rs.message_updates,
            "residual ({}) must beat synchronous ({}) on the chain",
            rr.message_updates,
            rs.message_updates
        );
    }

    /// Regression: a phased schedule that excludes a variable class must
    /// keep those variables' messages frozen in residual mode too —
    /// dirty propagation may only wake *scheduled* variables, or the two
    /// modes converge to different fixed points while both reporting
    /// success.
    #[test]
    fn residual_respects_unscheduled_variable_classes() {
        let mut g = FactorGraph::new();
        let a = g.add_var_with_class(2, 0);
        let b = g.add_var_with_class(2, 1); // class 1: never scheduled
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[a], Potential::Scores { group: grp, scores: vec![0.0, 2.0] }, 0);
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![0.8, 0.0, 0.0, 0.8] },
            0,
        );
        let schedule = Schedule {
            factor_phases: vec![vec![0]],
            var_phases: vec![vec![0]], // class 1 frozen
        };
        let base = LbpOptions { tol: 1e-10, max_iters: 500, schedule, ..Default::default() };
        let (ms, rs) = run_lbp(&g, &params, &[], &base);
        let (mr, rr) =
            run_lbp(&g, &params, &[], &LbpOptions { mode: ScheduleMode::Residual, ..base });
        assert!(rs.converged && rr.converged);
        for v in [a, b] {
            assert!(
                (ms.prob(v, 1) - mr.prob(v, 1)).abs() < 1e-8,
                "var {v:?}: sync {} vs residual {}",
                ms.prob(v, 1),
                mr.prob(v, 1)
            );
        }
    }

    #[test]
    fn residual_respects_clamps() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![2.0]);
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![1.0, 0.0, 0.0, 1.0] },
            0,
        );
        let opts = LbpOptions { mode: ScheduleMode::Residual, ..Default::default() };
        let (m, res) = run_lbp(&g, &params, &[(a, 1)], &opts);
        assert!(res.converged);
        assert_eq!(m.prob(a, 1), 1.0);
        assert!(m.prob(b, 1) > 0.8, "{}", m.prob(b, 1));
    }

    #[test]
    fn residual_converges_on_disconnected_and_empty_graphs() {
        // No factors at all: the drain must terminate immediately.
        let mut g = FactorGraph::new();
        g.add_var(3);
        let params = Params::new();
        let opts = LbpOptions { mode: ScheduleMode::Residual, ..Default::default() };
        let (m, res) = run_lbp(&g, &params, &[], &opts);
        assert!(res.converged);
        assert_eq!(res.message_updates, 0);
        assert!((m.prob(VarId(0), 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn residual_counts_match_synchronous_accounting() {
        // One unary factor, damping 0.1: synchronous sweeps until the
        // damped message stops moving (5 iterations × 1 message);
        // residual pays the priming update plus the geometric damping
        // tail — strictly fewer updates under identical accounting.
        let mut g = FactorGraph::new();
        let v = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[v], Potential::Scores { group: grp, scores: vec![0.0, 1.0] }, 0);
        let sync = run_lbp(&g, &params, &[], &LbpOptions::default()).1;
        let res = run_lbp(
            &g,
            &params,
            &[],
            &LbpOptions { mode: ScheduleMode::Residual, ..Default::default() },
        )
        .1;
        assert_eq!(sync.message_updates, sync.iterations as u64);
        assert!(res.converged && sync.converged);
        assert!(res.message_updates >= 1);
        assert!(
            res.message_updates < sync.message_updates,
            "residual {} vs sync {}",
            res.message_updates,
            sync.message_updates
        );
        // With undamped updates the fixed point is reached in one shot:
        // the priming update is the only message residual mode computes.
        let undamped = LbpOptions { damping: 0.0, ..Default::default() };
        let res0 = run_lbp(
            &g,
            &params,
            &[],
            &LbpOptions { mode: ScheduleMode::Residual, ..undamped.clone() },
        )
        .1;
        assert_eq!(res0.message_updates, 1);
    }

    #[test]
    fn bucket_queue_pops_highest_priority_first() {
        let tol = 1e-4;
        let mut q = BucketQueue::new(tol, 4);
        let mut prio = [0.0f64; 4];
        for (f, p) in [(0u32, 2e-4), (1, 5e-1), (2, 3e-3), (3, 5e-5)] {
            prio[f as usize] = p;
            q.update(f, 0.0, p);
        }
        let mut batch = Vec::new();
        q.pop_batch(2, &mut prio, &mut batch);
        assert_eq!(batch, vec![1, 2], "highest buckets first");
        // Factor 3 was below tol and never queued.
        batch.clear();
        q.pop_batch(8, &mut prio, &mut batch);
        assert_eq!(batch, vec![0]);
        assert!(prio.iter().all(|&p| p == 0.0 || p == 5e-5));
    }

    #[test]
    fn bucket_queue_rebuckets_grown_priorities() {
        let tol = 1e-4;
        let mut q = BucketQueue::new(tol, 2);
        let mut prio = [2e-4f64, 1.0];
        q.update(0, 0.0, 2e-4);
        q.update(1, 0.0, 1.0);
        // Factor 0 grows past factor 1; the stale low-bucket entry must
        // not shadow the fresh one.
        prio[0] = 4.0;
        q.update(0, 2e-4, 4.0);
        let mut batch = Vec::new();
        q.pop_batch(1, &mut prio, &mut batch);
        assert_eq!(batch, vec![0]);
        batch.clear();
        q.pop_batch(4, &mut prio, &mut batch);
        assert_eq!(batch, vec![1]);
    }

    /// `bucket_of` reads the exponent bits but must give exactly the
    /// libm expression's bucket — at and next to every power of two
    /// `tol·2^k`, and for random priorities over the whole range.
    #[test]
    fn bucket_of_matches_the_log2_expression() {
        let mut rng = proptest::test_runner::TestRng::new(0xb0c4);
        for tol in [1e-3, 1e-4, 1e-12] {
            let q = BucketQueue::new(tol, 0);
            let reference = |p: f64| ((p / tol).log2().max(0.0) as usize).min(63);
            let mut ps = vec![0.0, tol, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NAN];
            for k in 0..64 {
                let p = tol * 2f64.powi(k);
                ps.extend([p, p.next_up(), p.next_down()]);
            }
            for _ in 0..20_000 {
                let k = 72.0 * rng.unit_f64() - 4.0;
                ps.push(tol * 2f64.powf(k));
                ps.push(rng.unit_f64());
            }
            for p in ps {
                assert_eq!(q.bucket_of(p), reference(p), "tol {tol} p {p:e}");
            }
        }
    }

    /// The arity-3 decode adds bitwise what the generic loop adds, over
    /// every configuration of mixed cardinalities 1–8, with incoming
    /// rows that include clamp rows (`p` of exactly 0) and weights 0, 1
    /// and random.
    #[test]
    fn arity3_accumulate_is_bitwise_the_generic_loop() {
        let mut rng = proptest::test_runner::TestRng::new(0xacc3);
        for _ in 0..300 {
            let cards: Vec<usize> = (0..3).map(|_| 1 + rng.below(8) as usize).collect();
            let mut vf = Vec::new();
            let mut slots = Vec::new();
            for &card in &cards {
                let clamp = rng.below(4) == 0;
                slots.push(vf.len()..vf.len() + card);
                vf.extend((0..card).map(|i| match (clamp, i) {
                    (true, 0) => 0.0,
                    (true, _) => LOG_ZERO,
                    (false, _) => -40.0 * rng.unit_f64(),
                }));
            }
            let (mut fast, mut generic) = (Scratch::default(), Scratch::default());
            fast.load_incoming(&vf, slots.iter().cloned());
            generic.load_incoming(&vf, slots.iter().cloned());
            for c in 0..cards.iter().product::<usize>() {
                let w = match rng.below(3) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.unit_f64(),
                };
                fast.accumulate(c, w);
                generic.accumulate_any(c, w);
            }
            let bits = |s: &Scratch| s.acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&generic), "cards {cards:?}");
        }
    }

    /// Warm-started resume on an appended-to graph must reach the cold
    /// fixed point (residual and the synchronous oracle alike) while
    /// recomputing far fewer messages than a cold residual run.
    #[test]
    fn resume_on_appended_graph_matches_cold_fixed_point() {
        // Chain of 30 built in two stages: the first 20 vars/factors,
        // then 10 more appended — ids and edge enumeration of the prefix
        // are identical by construction.
        let build = |n: usize| -> (FactorGraph, Params) {
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> = (0..n).map(|_| g.add_var(2)).collect();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            g.add_factor(&[vars[0]], Potential::Scores { group: grp, scores: vec![0.0, 1.5] }, 0);
            for w in vars.windows(2) {
                g.add_factor(
                    &[w[0], w[1]],
                    Potential::Scores { group: grp, scores: vec![0.6, 0.0, 0.0, 0.6] },
                    0,
                );
            }
            (g, params)
        };
        let (g20, params) = build(20);
        let (g30, _) = build(30);
        let dirty: Vec<u32> = (g20.num_factors() as u32..g30.num_factors() as u32).collect();
        let opts = LbpOptions {
            tol: 1e-10,
            max_iters: 500,
            mode: ScheduleMode::Residual,
            ..Default::default()
        };
        let mut prefix = LbpEngine::new(&g20);
        prefix.run(&params, &opts);

        let mut warm = LbpEngine::with_state(&g30, prefix.into_state());
        let warm_res = warm.resume(&params, &opts, &dirty);
        let mut cold = LbpEngine::new(&g30);
        let cold_res = cold.run(&params, &opts);
        let mut oracle = LbpEngine::new(&g30);
        let oracle_res =
            oracle.run(&params, &LbpOptions { mode: ScheduleMode::Synchronous, ..opts.clone() });
        assert!(warm_res.converged && cold_res.converged && oracle_res.converged);
        let mw = warm.marginals();
        for (what, reference) in
            [("cold residual", cold.marginals()), ("oracle", oracle.marginals())]
        {
            for v in 0..g30.num_vars() {
                let v = VarId(v as u32);
                assert!(
                    (mw.prob(v, 1) - reference.prob(v, 1)).abs() < 1e-7,
                    "var {v:?}: warm {} vs {what} {}",
                    mw.prob(v, 1),
                    reference.prob(v, 1)
                );
            }
        }
        assert!(
            warm_res.message_updates * 2 < cold_res.message_updates,
            "warm resume must at least halve the cold residual work: {} vs {}",
            warm_res.message_updates,
            cold_res.message_updates
        );
    }

    /// Warm resumes run the residual drain only: a synchronous
    /// `LbpOptions` is rejected instead of silently sweeping everything.
    #[test]
    #[should_panic(expected = "lbp.mode must be Residual")]
    fn resume_rejects_the_synchronous_schedule() {
        let (g, params, _) = chain_graph();
        let mut eng = LbpEngine::new(&g);
        let opts = LbpOptions::default();
        eng.run(&params, &opts);
        eng.resume(&params, &opts, &[0]);
    }

    /// A connected component the dirty set does not reach performs zero
    /// updates under residual resume: its messages — and marginals — are
    /// preserved bit-for-bit.
    #[test]
    fn resume_leaves_untouched_components_bitwise_frozen() {
        let build = |extended: bool| -> (FactorGraph, Params) {
            let mut g = FactorGraph::new();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            // Component A: a 3-cycle (loopy, nontrivial fixed point).
            let a: Vec<VarId> = (0..3).map(|_| g.add_var(2)).collect();
            for (i, j) in [(0, 1), (1, 2), (0, 2)] {
                g.add_factor(
                    &[a[i], a[j]],
                    Potential::Scores { group: grp, scores: vec![0.7, 0.0, 0.0, 0.7] },
                    0,
                );
            }
            // Component B: a pair.
            let b0 = g.add_var(2);
            let b1 = g.add_var(2);
            g.add_factor(&[b0], Potential::Scores { group: grp, scores: vec![0.0, 0.9] }, 0);
            g.add_factor(
                &[b0, b1],
                Potential::Scores { group: grp, scores: vec![0.5, 0.0, 0.0, 0.5] },
                0,
            );
            if extended {
                // Delta: one more variable hanging off component B.
                let b2 = g.add_var(2);
                g.add_factor(
                    &[b1, b2],
                    Potential::Scores { group: grp, scores: vec![0.4, 0.0, 0.0, 0.4] },
                    0,
                );
            }
            (g, params)
        };
        let opts = LbpOptions {
            tol: 1e-10,
            max_iters: 500,
            mode: ScheduleMode::Residual,
            ..Default::default()
        };
        let (g0, params) = build(false);
        let mut prefix = LbpEngine::new(&g0);
        prefix.run(&params, &opts);
        let before = prefix.marginals();
        let state = prefix.into_state();

        let (g1, _) = build(true);
        let dirty: Vec<u32> = (g0.num_factors() as u32..g1.num_factors() as u32).collect();
        let mut warm = LbpEngine::with_state(&g1, state);
        let res = warm.resume(&params, &opts, &dirty);
        assert!(res.converged);
        let after = warm.marginals();
        for v in 0..3 {
            let v = VarId(v);
            for (x, y) in before.of(v).iter().zip(after.of(v)) {
                assert_eq!(x.to_bits(), y.to_bits(), "component A must stay frozen");
            }
        }
        // The new variable actually moved off uniform.
        assert!((after.prob(VarId(5), 1) - 0.5).abs() > 1e-3);
    }

    /// The serving retraction sequence — converge, neutralize a factor,
    /// reset its messages, resume with the tombstone and its neighbors
    /// dirty — reaches the fixed point of a graph that never had the
    /// factor — the cold residual run and the synchronous oracle alike.
    #[test]
    fn neutralize_reset_resume_matches_factor_free_fixed_point() {
        let build = |with_evidence: bool| -> (FactorGraph, Params) {
            let mut g = FactorGraph::new();
            let mut params = Params::new();
            let grp = params.add_group_with(vec![1.0]);
            let a = g.add_var(2);
            let b = g.add_var(2);
            if with_evidence {
                // Factor 0: the evidence that will be retracted.
                g.add_factor(&[a], Potential::Scores { group: grp, scores: vec![0.0, 1.4] }, 0);
            }
            g.add_factor(
                &[a, b],
                Potential::Scores { group: grp, scores: vec![0.6, 0.0, 0.0, 0.6] },
                0,
            );
            g.add_factor(&[b], Potential::Scores { group: grp, scores: vec![0.3, 0.0] }, 0);
            (g, params)
        };
        let opts = LbpOptions {
            tol: 1e-10,
            max_iters: 500,
            mode: ScheduleMode::Residual,
            ..Default::default()
        };
        let (mut g, params) = build(true);
        let mut eng = LbpEngine::new(&g);
        assert!(eng.run(&params, &opts).converged);
        let before = eng.marginals();
        assert!(before.prob(VarId(0), 1) > 0.6, "evidence must matter pre-retraction");
        let state = eng.into_state();

        g.neutralize_factor(FactorId(0));
        let mut warm = LbpEngine::with_state(&g, state);
        warm.reset_factor_messages(&[0]);
        // Dirty: the tombstone plus every live factor sharing one of its
        // variables (here the pair factor 1).
        let res = warm.resume(&params, &opts, &[0, 1]);
        assert!(res.converged);

        // Reference: the same system without the evidence factor,
        // converged cold under either schedule.
        let (g_ref, _) = build(false);
        for mode in [ScheduleMode::Synchronous, ScheduleMode::Residual] {
            let mut cold = LbpEngine::new(&g_ref);
            assert!(cold.run(&params, &LbpOptions { mode, ..opts.clone() }).converged);
            let (mw, mr) = (warm.marginals(), cold.marginals());
            for v in 0..2 {
                assert!(
                    (mw.prob(VarId(v), 1) - mr.prob(VarId(v), 1)).abs() < 1e-7,
                    "{mode:?} var {v}: warm {} vs factor-free {}",
                    mw.prob(VarId(v), 1),
                    mr.prob(VarId(v), 1)
                );
            }
        }
    }

    #[test]
    fn lbp_messages_state_roundtrip_and_bitwise_eq() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g.add_factor(&[a, b], Potential::Scores { group: grp, scores: vec![0.2; 6] }, 0);
        g.add_factor(&[a], Potential::Scores { group: grp, scores: vec![0.0, 0.8] }, 0);
        let mut eng = LbpEngine::new(&g);
        eng.run(&params, &LbpOptions::default());
        let snap = eng.into_state().export_messages(MessageStore::Exact);
        let (fv, vf, edges) = (snap.fv().to_vec(), snap.vf().to_vec(), snap.num_edges());
        let restored = LbpMessages::import_state(
            MessageArena::Exact(fv.clone()),
            MessageArena::Exact(vf.clone()),
            edges,
        )
        .unwrap();
        assert!(snap.bitwise_eq(&restored));
        assert_eq!(restored.num_edges(), snap.num_edges());
        assert_eq!(restored.store(), MessageStore::Exact);
        // A restored snapshot drives an engine to the identical state.
        let mut state = LbpEngine::new(&g).into_state();
        state.import_messages(&restored);
        assert!(state.export_messages(MessageStore::Exact).bitwise_eq(&snap));
        // Mismatched arenas are a typed error, not a panic.
        let exact = |n: usize| MessageArena::Exact(vec![0.0; n]);
        assert!(LbpMessages::import_state(exact(3), exact(2), 1).is_err());
        assert!(LbpMessages::import_state(exact(2), exact(2), 9).is_err());
        let quant = MessageArena::encode(&[0.0, 0.0], MessageStore::Quantized);
        assert!(LbpMessages::import_state(exact(2), quant, 2).is_err(), "mixed stores");
        // A single flipped bit breaks bitwise equality.
        let mut fv2 = fv.clone();
        fv2[0] = f64::from_bits(fv2[0].to_bits() ^ 1);
        let tweaked =
            LbpMessages::import_state(MessageArena::Exact(fv2), MessageArena::Exact(vf), edges)
                .unwrap();
        assert!(!snap.bitwise_eq(&tweaked));
    }

    /// The quantized store round-trips through an engine: committing the
    /// same converged state twice yields bitwise-identical quantized
    /// snapshots (idempotence at the engine level), and the decoded
    /// messages stay within quantization tolerance of the exact store.
    #[test]
    fn quantized_export_is_stable_and_close_to_exact() {
        let (g, params, _) = chain_graph();
        let mut eng = LbpEngine::new(&g);
        eng.run(&params, &LbpOptions::default());
        let (exact, quant) = (
            eng.s.export_messages(MessageStore::Exact),
            eng.s.export_messages(MessageStore::Quantized),
        );
        assert_eq!(quant.store(), MessageStore::Quantized);
        assert!(quant.heap_bytes() < exact.heap_bytes());
        // Decode error bounded by block spread × f32 eps (messages are
        // normalized log-probs; no clamps in this graph, so spreads are
        // a few nats at most).
        let (de, dq) = (exact.fv().to_vec(), quant.fv().to_vec());
        for (a, b) in de.iter().zip(&dq) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // Import the quantized snapshot and re-commit without running:
        // the stored representation must be a fixed point.
        let mut state = LbpEngine::new(&g).into_state();
        state.import_messages(&quant);
        let recommit = state.export_messages(MessageStore::Quantized);
        assert!(recommit.bitwise_eq(&quant));
    }

    #[test]
    #[should_panic(expected = "appending")]
    fn import_rejects_non_prefix_snapshot() {
        let mut g0 = FactorGraph::new();
        let a = g0.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        g0.add_factor(&[a], Potential::Scores { group: grp, scores: vec![0.0, 1.0] }, 0);
        let mut eng0 = LbpEngine::new(&g0);
        eng0.run(&params, &LbpOptions::default());
        let snap = eng0.s.export_messages(MessageStore::Exact);
        // A *different* graph whose first factor has another arity: its
        // state's edges and slots cannot line up with the snapshot.
        let mut g1 = FactorGraph::new();
        let x = g1.add_var(3);
        g1.add_factor(&[x], Potential::Scores { group: 0, scores: vec![0.0; 3] }, 0);
        g1.add_factor(&[x], Potential::Scores { group: 0, scores: vec![0.0; 3] }, 0);
        LbpEngine::new(&g1).into_state().import_messages(&snap);
    }

    /// A resident state resumes exactly like a fresh state that imported
    /// its messages — also after a run that stopped at `max_iters` with
    /// factors still queued and sub-`tol` priorities raised, which the
    /// run must clear rather than hand to the next one.
    #[test]
    fn resume_after_an_unconverged_run_matches_a_restored_state() {
        let (g, params, _) = chain_graph();
        let mut g_grown = g.clone();
        let extra = g_grown.add_var(2);
        let grp = params.num_groups() - 1;
        g_grown.add_factor(
            &[VarId(0), extra],
            Potential::Scores { group: grp, scores: vec![0.9, 0.0, 0.0, 0.9] },
            0,
        );
        let residual =
            LbpOptions { mode: ScheduleMode::Residual, tol: 1e-12, ..Default::default() };
        let mut eng = LbpEngine::new(&g);
        let cut = eng.run(&params, &LbpOptions { max_iters: 1, ..residual.clone() });
        assert!(!cut.converged, "one sweep-equivalent must not converge at tol 1e-12");
        let drain = &eng.s.drain;
        assert!(drain.prio.iter().all(|&p| p == 0.0), "the cut-off run left priorities behind");
        assert!(!drain.queue.queued.contains(&true), "the cut-off run left factors queued");
        let mut restored = LbpState::new();
        restored = LbpEngine::with_state(&g, restored).into_state();
        restored.import_messages(&eng.s.export_messages(MessageStore::Exact));
        let dirty: Vec<u32> = (0..g_grown.num_factors() as u32).collect();
        let mut results = Vec::new();
        for state in [eng.into_state(), restored] {
            let mut warm = LbpEngine::with_state(&g_grown, state);
            let res = warm.resume(&params, &residual, &dirty);
            let messages = warm.s.export_messages(MessageStore::Exact);
            results.push((res.message_updates, res.converged, messages));
        }
        assert_eq!((results[0].0, results[0].1), (results[1].0, results[1].1));
        assert!(results[0].2.bitwise_eq(&results[1].2), "resident and restored states diverged");
    }

    /// Cached marginals refreshed for the touched variables only equal a
    /// full recompute bit for bit, and an untouched component is not
    /// recomputed.
    #[test]
    fn refresh_recomputes_exactly_the_touched_marginals() {
        let mut g = FactorGraph::new();
        let mut params = Params::new();
        let grp = params.add_group_with(vec![1.0]);
        let pair = Potential::Scores { group: grp, scores: vec![0.7, 0.0, 0.0, 0.7] };
        let a: Vec<VarId> = (0..3).map(|_| g.add_var(2)).collect();
        g.add_factor(&[a[0]], Potential::Scores { group: grp, scores: vec![0.0, 0.8] }, 0);
        g.add_factor(&[a[0], a[1]], pair.clone(), 0);
        g.add_factor(&[a[1], a[2]], pair.clone(), 0);
        let b: Vec<VarId> = (0..2).map(|_| g.add_var(3)).collect();
        let triple =
            Potential::Scores { group: grp, scores: (0..9).map(|i| i as f64 * 0.1).collect() };
        g.add_factor(&[b[0], b[1]], triple, 0);
        let opts = LbpOptions { mode: ScheduleMode::Residual, tol: 1e-10, ..Default::default() };
        let mut eng = LbpEngine::new(&g);
        eng.run(&params, &opts);
        let mut cached = Marginals::new_internal(Vec::new());
        assert_eq!(eng.refresh_marginals(&mut cached, true), 5);
        let state = eng.into_state();
        let first = g.num_factors() as u32;
        let c = g.add_var(2);
        g.add_factor(&[a[2], c], pair, 0);
        let mut warm = LbpEngine::with_state(&g, state);
        warm.resume(&params, &opts, &[first]);
        let refreshed = warm.refresh_marginals(&mut cached, false);
        assert!(refreshed <= 4, "component b must not be recomputed ({refreshed} refreshed)");
        let full = warm.marginals();
        for v in 0..g.num_vars() {
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(cached.of(VarId(v as u32))), bits(full.of(VarId(v as u32))), "var {v}");
        }
    }

    /// The log-domain reference the linear-domain kernels are checked
    /// against: raw factor→variable messages of factor `f` by `logaddexp`
    /// over every configuration, excluding each slot's own incoming
    /// message directly.
    fn reference_raw_messages(eng: &LbpEngine, params: &Params, f: usize) -> Vec<Vec<f64>> {
        let (g, fid) = (eng.graph, FactorId(f as u32));
        let edges: Vec<usize> = g.factor_edges(f).collect();
        let mut out: Vec<Vec<f64>> =
            edges.iter().map(|&e| vec![f64::NEG_INFINITY; g.edge_slots(e).len()]).collect();
        for flat in 0..g.table_size(fid) {
            let states: Vec<usize> =
                (0..edges.len()).map(|k| g.state_of_slot(fid, flat, k) as usize).collect();
            let log_phi = g.factor_potential(fid).log_phi(params, flat);
            for k in 0..edges.len() {
                let mut term = log_phi;
                for j in (0..edges.len()).filter(|&j| j != k) {
                    term += eng.s.vf[g.edge_slots(edges[j]).start + states[j]];
                }
                let o = &mut out[k][states[k]];
                let m = o.max(term);
                *o = if m == f64::NEG_INFINITY {
                    m
                } else {
                    m + ((*o - m).exp() + (term - m).exp()).ln()
                };
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every kernel — dense `Scores` and `Features`, two-level tables
        /// on both sides of `Δ = 0`, with empty, random and full
        /// `high_configs` — commits the same damped, normalized messages
        /// as the log-domain reference, within 1e-12 in probability.
        /// Incoming rows are random normalized log-messages over
        /// `[-40, 0]`, some of them clamp rows (`0` / [`LOG_ZERO`]).
        #[test]
        fn linear_kernels_match_log_domain_reference(
            arity in 2usize..4,
            kind in 0u8..3,
            high_mode in 0u8..3,
            beta in -50.0f64..50.0,
            damping in 0.0f64..0.9,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::test_runner::TestRng::new(seed);
            let mut g = FactorGraph::new();
            let vars: Vec<VarId> = (0..arity).map(|_| g.add_var(1 + rng.below(8) as u32)).collect();
            let size: usize = vars.iter().map(|&v| g.cardinality(v) as usize).product();
            let mut params = Params::new();
            let potential = match kind {
                0 => {
                    let grp = params.add_group_with(vec![beta]);
                    let scores = (0..size).map(|_| 2.0 * rng.unit_f64() - 1.0).collect();
                    Potential::Scores { group: grp, scores }
                }
                1 => {
                    let grp = params.add_group_with(vec![beta, -0.5 * beta]);
                    let feats = (0..size)
                        .map(|_| vec![2.0 * rng.unit_f64() - 1.0, 2.0 * rng.unit_f64() - 1.0])
                        .collect();
                    Potential::Features { group: grp, feats }
                }
                _ => {
                    let grp = params.add_group_with(vec![beta]);
                    let high_configs = (0..size as u32)
                        .filter(|_| match high_mode {
                            0 => false,
                            1 => rng.below(2) == 0,
                            _ => true,
                        })
                        .collect();
                    let (high, low) = (2.0 * rng.unit_f64() - 1.0, 2.0 * rng.unit_f64() - 1.0);
                    Potential::two_level(grp, size, high_configs, high, low)
                }
            };
            g.add_factor(&vars, potential, 0);
            let mut eng = LbpEngine::new(&g);
            for e in 0..g.num_edges() {
                let r = g.edge_slots(e);
                let clamp = rng.below(4) == 0;
                let hot = rng.below(r.len() as u64) as usize;
                for (i, x) in eng.s.vf[r.clone()].iter_mut().enumerate() {
                    *x = match (clamp, i == hot) {
                        (true, true) => 0.0,
                        (true, false) => LOG_ZERO,
                        (false, _) => -40.0 * rng.unit_f64(),
                    };
                }
                if !clamp {
                    log_normalize(&mut eng.s.vf[r.clone()]);
                }
                for x in &mut eng.s.fv[r.clone()] {
                    *x = -5.0 * rng.unit_f64();
                }
                log_normalize(&mut eng.s.fv[r]);
            }
            let old = eng.s.fv.clone();
            let reference = reference_raw_messages(&eng, &params, 0);
            let opts = LbpOptions { damping, ..Default::default() };
            eng.update_factor_batch(&params, &[0], &opts);
            for (e, raw) in reference.iter().enumerate() {
                let r = g.edge_slots(e);
                let mut want: Vec<f64> =
                    old[r.clone()].iter().zip(raw).map(|(o, x)| damping * o + (1.0 - damping) * x).collect();
                log_normalize(&mut want);
                for (s, (&got, &want)) in eng.s.fv[r].iter().zip(&want).enumerate() {
                    proptest::prop_assert!(
                        (got.exp() - want.exp()).abs() < 1e-12,
                        "kind {} slot {} state {}: kernel {} vs reference {}", kind, e, s, got, want
                    );
                }
            }
        }
    }

    /// `|β| = 1e3` pushes every factor deep into the regime where the
    /// linear-domain weights underflow to exactly 0. On a tree LBP is
    /// still exact: messages stay finite, the run converges, and the
    /// marginals match brute-force enumeration.
    #[test]
    fn extreme_weights_stay_exact_on_a_tree() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(3);
        let c = g.add_var(2);
        let d = g.add_var(2);
        let e = g.add_var(3);
        let mut params = Params::new();
        let soft = params.add_group_with(vec![1.0]);
        let hard = params.add_group_with(vec![1e3]);
        let repel = params.add_group_with(vec![-1e3]);
        let feats = params.add_group_with(vec![0.8, -0.3]);
        g.add_factor(&[a], Potential::Scores { group: soft, scores: vec![0.0, 0.7] }, 0);
        // b copies a (b = 2 is never allowed).
        let agree = (0..6).map(|flat| f64::from(flat % 2 == flat / 2)).collect();
        g.add_factor(&[a, b], Potential::Scores { group: hard, scores: agree }, 0);
        // Sparse path (Δ = +800): (b, c, d) with b + c + d even.
        let even = (0..12u32).filter(|&x| (x % 3 + (x / 3) % 2 + x / 6) % 2 == 0).collect();
        g.add_factor(&[b, c, d], Potential::two_level(hard, 12, even, 0.9, 0.1), 0);
        // Dense path (Δ = −1e3): (d, e) with e = d repelled.
        let same = vec![0, 4];
        g.add_factor(&[d, e], Potential::two_level(repel, 6, same, 1.0, 0.0), 0);
        let unary = vec![vec![0.0, 1.0], vec![0.5, 0.0], vec![1.0, 1.0]];
        g.add_factor(&[e], Potential::Features { group: feats, feats: unary }, 0);

        let exact = crate::exact::exact_marginals(&g, &params, &[]);
        for mode in [ScheduleMode::Synchronous, ScheduleMode::Residual] {
            let mut eng = LbpEngine::new(&g);
            let opts = LbpOptions { tol: 1e-12, max_iters: 500, mode, ..Default::default() };
            let res = eng.run(&params, &opts);
            assert!(res.converged, "{mode:?}: {res:?}");
            assert!(eng.s.fv.iter().chain(&eng.s.vf).all(|x| x.is_finite()), "{mode:?}");
            let lbp = eng.marginals();
            for v in [a, b, c, d, e] {
                for s in 0..g.cardinality(v) {
                    assert!(
                        (exact.prob(v, s) - lbp.prob(v, s)).abs() < 1e-9,
                        "{mode:?} var {v:?} state {s}: exact {} lbp {}",
                        exact.prob(v, s),
                        lbp.prob(v, s)
                    );
                }
            }
        }
        // The fixture is not degenerate: a and e keep real uncertainty.
        assert!((exact.prob(a, 1) - 0.5).abs() > 0.1 && exact.prob(a, 1) < 0.9);
        assert!(exact.of(e).iter().filter(|&&p| p > 0.05).count() >= 2);
    }

    /// A NaN or infinite weight is rejected by both entry points, naming
    /// the group and index — it used to normalize every message to
    /// uniform and report convergence.
    #[test]
    fn non_finite_weights_are_rejected() {
        let (g, params, _) = chain_graph();
        let residual = LbpOptions { mode: ScheduleMode::Residual, ..Default::default() };
        let panic_message = |run: &mut dyn FnMut()| -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("a non-finite weight must panic");
            payload.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = params.clone();
            p.add_group_with(vec![0.5, bad]);
            let expected = format!("LBP weights must be finite: group 1 index 1 is {bad}");
            for opts in [LbpOptions::default(), residual.clone()] {
                let msg = panic_message(&mut || {
                    LbpEngine::new(&g).run(&p, &opts);
                });
                assert_eq!(msg, expected, "run, {:?}", opts.mode);
            }
            let mut eng = LbpEngine::new(&g);
            eng.run(&params, &residual);
            let msg = panic_message(&mut || {
                eng.resume(&p, &residual, &[0]);
            });
            assert_eq!(msg, expected, "resume");
        }
    }

    #[test]
    fn contradictory_strong_evidence_does_not_nan() {
        let mut g = FactorGraph::new();
        let a = g.add_var(2);
        let b = g.add_var(2);
        let mut params = Params::new();
        let grp = params.add_group_with(vec![50.0]);
        // Disagreement factor, but both ends clamped to the same state.
        g.add_factor(
            &[a, b],
            Potential::Scores { group: grp, scores: vec![0.0, 1.0, 1.0, 0.0] },
            0,
        );
        let (m, _) = run_lbp(&g, &params, &[(a, 0), (b, 0)], &LbpOptions::default());
        for v in [a, b] {
            for &p in m.of(v) {
                assert!(p.is_finite());
            }
        }
    }
}
