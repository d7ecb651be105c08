//! Factor-graph construction (paper §3.1–§3.3).
//!
//! Translates an OKB + CKB + blocked pairs into a `jocl-fg` graph:
//!
//! * one **linking variable** per mention with a non-empty candidate set,
//!   carrying its F4/F5/F6 feature factor;
//! * one **canonicalization variable** per blocked pair, carrying its
//!   F1/F2/F3 feature factor (state 1 features are the similarities,
//!   state 0 features their complements, exactly the paper's `f(·, x)`
//!   definition);
//! * **U1–U3** transitivity factors on triangles of pair variables;
//! * **U4** fact-inclusion factors per triple with all three linking
//!   variables (sparse two-level tables: 0.9 on CKB facts, 0.1 elsewhere);
//! * **U5–U7** consistency factors per pair variable whose mentions both
//!   have linking variables (0.7 when link-equality agrees with the pair
//!   state, 0.3 otherwise).
//!
//! Candidate sets and feature vectors are cached per distinct phrase, so
//! the cost scales with distinct surface forms rather than mentions.
//!
//! There is **one** construction path, `GraphBuilder::extend`, which
//! appends a blocking delta to a plan. [`build_graph`] is one extend over
//! an empty plan with the whole OKB as the delta; the incremental session
//! (`crate::incremental`) keeps a `GraphBuilder` across deltas.
//!
//! Construction is **sharded**: the expensive per-distinct-key work
//! (candidate retrieval, similarity features, two-level tables) is split
//! into contiguous parts computed on scoped worker threads, then the
//! graph is assembled serially from the precomputed caches with
//! [`FactorGraph::reserve`] + in-order factor insertion. A build uses one
//! worker per hardware thread. Part boundaries never influence values,
//! so the built graph is identical for any worker count.

use crate::blocking::Blocking;
use crate::config::{classes, FeatureSet, JoclConfig, Variant};
use crate::signals::{PhraseCtx, Signals};
use jocl_fg::{FactorGraph, Params, Potential, VarId};
use jocl_kb::{
    CandidateGen, Ckb, EntityId, NpMention, NpSlot, Okb, RelationId, RpMention, TripleId,
};
use jocl_text::fx::{FxHashMap, FxHashSet};

/// Parameter-group ids for every factor family.
#[derive(Debug, Clone, Copy)]
pub struct ParamGroups {
    /// α1 — F1 (subject canonicalization).
    pub alpha1: usize,
    /// α2 — F2 (predicate canonicalization).
    pub alpha2: usize,
    /// α3 — F3 (object canonicalization).
    pub alpha3: usize,
    /// α4 — F4 (subject linking).
    pub alpha4: usize,
    /// α5 — F5 (predicate linking).
    pub alpha5: usize,
    /// α6 — F6 (object linking).
    pub alpha6: usize,
    /// β1–β7 — U1–U7 scalar weights (index 0 = β1).
    pub beta: [usize; 7],
    /// γ — scalar weight of the S1/S2 side-information potentials
    /// (imported alias/link tables). Allocated unconditionally so the
    /// parameter layout never depends on whether side info is present;
    /// without S1/S2 factors the group receives zero gradient and stays
    /// at its initial value.
    pub gamma: usize,
}

/// Build statistics (reported in diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of transitivity triangles added (U1+U2+U3).
    pub triangles: usize,
    /// Number of fact-inclusion factors (U4).
    pub fact_factors: usize,
    /// Number of consistency factors (U5+U6+U7).
    pub consistency_factors: usize,
}

/// The constructed graph plus all index maps needed for training and
/// decoding. `Clone` so a long-lived incremental session can be forked
/// (e.g. by benchmarks replaying the same delta against one warm state).
#[derive(Clone)]
pub struct GraphPlan {
    /// The factor graph.
    pub graph: FactorGraph,
    /// Initial parameters (α = 2, β = 2; learning refines them).
    pub params: Params,
    /// Parameter-group handles.
    pub groups: ParamGroups,
    /// Per dense NP mention: its linking variable (if any candidates).
    pub np_link_vars: Vec<Option<VarId>>,
    /// Per dense NP mention: the candidate entities (variable states).
    pub np_candidates: Vec<Vec<EntityId>>,
    /// Per dense RP mention: its linking variable.
    pub rp_link_vars: Vec<Option<VarId>>,
    /// Per dense RP mention: candidate relations.
    pub rp_candidates: Vec<Vec<RelationId>>,
    /// Subject pair variables `x_ij`.
    pub subj_pair_vars: Vec<(TripleId, TripleId, VarId)>,
    /// Predicate pair variables `y_ij`.
    pub pred_pair_vars: Vec<(TripleId, TripleId, VarId)>,
    /// Object pair variables `z_ij`.
    pub obj_pair_vars: Vec<(TripleId, TripleId, VarId)>,
    /// Construction statistics.
    pub stats: BuildStats,
}

impl GraphPlan {
    /// A plan with no variables or factors yet, under `params`.
    pub(crate) fn empty(params: Params, groups: ParamGroups) -> Self {
        GraphPlan {
            graph: FactorGraph::new(),
            params,
            groups,
            np_link_vars: Vec::new(),
            np_candidates: Vec::new(),
            rp_link_vars: Vec::new(),
            rp_candidates: Vec::new(),
            subj_pair_vars: Vec::new(),
            pred_pair_vars: Vec::new(),
            obj_pair_vars: Vec::new(),
            stats: BuildStats::default(),
        }
    }

    /// Resident heap bytes of the plan: the factor graph (structure +
    /// potential tables) plus the link/candidate maps and pair
    /// registries. Capacity-based.
    pub fn heap_bytes(&self) -> usize {
        fn rows<T>(v: &[Vec<T>]) -> usize {
            std::mem::size_of_val(v)
                + v.iter().map(|c| c.capacity() * std::mem::size_of::<T>()).sum::<usize>()
        }
        self.graph.heap_bytes()
            + self.np_link_vars.capacity() * std::mem::size_of::<Option<VarId>>()
            + self.rp_link_vars.capacity() * std::mem::size_of::<Option<VarId>>()
            + rows(&self.np_candidates)
            + rows(&self.rp_candidates)
            + (self.subj_pair_vars.capacity()
                + self.pred_pair_vars.capacity()
                + self.obj_pair_vars.capacity())
                * std::mem::size_of::<(TripleId, TripleId, VarId)>()
    }

    /// Serialize the whole plan — graph structure with potentials,
    /// parameters, link/candidate maps, pair-variable registries and
    /// build stats — into a snapshot section. Floats are written as raw
    /// bits: a restored plan must drive inference to *bitwise* the same
    /// messages.
    pub fn export_state(&self, w: &mut jocl_kb::snap::SnapWriter) {
        w.tag("PLAN");
        let g = &self.graph;
        w.usize(g.num_vars());
        for v in 0..g.num_vars() {
            let v = VarId(v as u32);
            w.u32(g.cardinality(v));
            w.u64(g.var_class(v) as u64);
        }
        w.usize(g.num_factors());
        for f in 0..g.num_factors() {
            let f = jocl_fg::FactorId(f as u32);
            w.u64(g.factor_class(f) as u64);
            let vars: Vec<u32> = g.factor_vars(f).iter().map(|v| v.0).collect();
            w.u32_slice_packed(&vars);
            match g.factor_potential(f) {
                Potential::Features { group, feats } => {
                    w.u64(0);
                    w.usize(*group);
                    w.usize(feats.len());
                    for row in feats {
                        w.f64_slice_packed(row);
                    }
                }
                Potential::Scores { group, scores } => {
                    w.u64(1);
                    w.usize(*group);
                    w.f64_slice_packed(scores);
                }
                Potential::TwoLevelScores { group, size, high_configs, high, low } => {
                    w.u64(2);
                    w.usize(*group);
                    w.usize(*size);
                    // Strictly sorted by construction (validated on
                    // import), so delta varints apply.
                    w.u32_slice_delta(high_configs);
                    w.f64(*high);
                    w.f64(*low);
                }
            }
        }
        w.usize(self.params.num_groups());
        for gi in 0..self.params.num_groups() {
            w.f64_slice(self.params.group(gi));
        }
        // Link maps: a presence bitset plus the present variable ids —
        // 1 bit + ~2 varint bytes per mention instead of 16 bytes.
        let link_vars = |w: &mut jocl_kb::snap::SnapWriter, vars: &[Option<VarId>]| {
            let present: Vec<bool> = vars.iter().map(Option::is_some).collect();
            let ids: Vec<u32> = vars.iter().flatten().map(|v| v.0).collect();
            w.bool_slice_packed(&present);
            w.u32_slice_packed(&ids);
        };
        link_vars(w, &self.np_link_vars);
        w.usize(self.np_candidates.len());
        for c in &self.np_candidates {
            let ids: Vec<u32> = c.iter().map(|e| e.0).collect();
            w.u32_slice_packed(&ids);
        }
        link_vars(w, &self.rp_link_vars);
        w.usize(self.rp_candidates.len());
        for c in &self.rp_candidates {
            let ids: Vec<u32> = c.iter().map(|r| r.0).collect();
            w.u32_slice_packed(&ids);
        }
        // Pair registries columnar: the first column is sorted (the
        // lists are kept in batch order), so it delta-packs to ~1 byte
        // per pair.
        for pairs in [&self.subj_pair_vars, &self.pred_pair_vars, &self.obj_pair_vars] {
            let a: Vec<u32> = pairs.iter().map(|p| p.0 .0).collect();
            let b: Vec<u32> = pairs.iter().map(|p| p.1 .0).collect();
            let v: Vec<u32> = pairs.iter().map(|p| p.2 .0).collect();
            w.u32_slice_delta(&a);
            w.u32_slice_packed(&b);
            w.u32_slice_packed(&v);
        }
        w.usize(self.stats.triangles);
        w.usize(self.stats.fact_factors);
        w.usize(self.stats.consistency_factors);
    }

    /// Rebuild a plan from [`GraphPlan::export_state`] bytes. The graph
    /// is replayed through `add_var_with_class`/`add_factor` (so
    /// adjacency and edge enumeration are reconstructed exactly), with
    /// all structural invariants re-validated as typed errors; parameter
    /// shapes are checked against the layout `config.features` implies.
    pub fn import_state(
        r: &mut jocl_kb::snap::SnapReader<'_>,
        config: &JoclConfig,
    ) -> Result<GraphPlan, jocl_kb::KbError> {
        r.expect_tag("PLAN")?;
        let mut graph = FactorGraph::new();
        let num_vars = r.seq_len(16)?;
        for _ in 0..num_vars {
            let card = r.u32()?;
            let class = r.u64()?;
            if card == 0 {
                return Err(r.corrupt("variable with zero cardinality"));
            }
            let class = u8::try_from(class)
                .map_err(|_| r.corrupt(format!("variable class {class} overflows u8")))?;
            graph.add_var_with_class(card, class);
        }
        let num_factors = r.seq_len(24)?;
        for _ in 0..num_factors {
            let class = r.u64()?;
            let class = u8::try_from(class)
                .map_err(|_| r.corrupt(format!("factor class {class} overflows u8")))?;
            let raw_vars = r.u32_vec_packed()?;
            let mut vars = Vec::with_capacity(raw_vars.len());
            let mut table = 1usize;
            for v in raw_vars {
                if v as usize >= num_vars {
                    return Err(r.corrupt(format!("factor variable {v} out of range")));
                }
                let vid = VarId(v);
                if vars.contains(&vid) {
                    return Err(r.corrupt(format!("factor repeats variable {v}")));
                }
                table = table.saturating_mul(graph.cardinality(vid) as usize);
                vars.push(vid);
            }
            let potential = match r.u64()? {
                0 => {
                    let group = r.usize()?;
                    let rows = r.seq_len(2)?;
                    let feats: Vec<Vec<f64>> =
                        (0..rows).map(|_| r.f64_vec_packed()).collect::<Result<_, _>>()?;
                    Potential::Features { group, feats }
                }
                1 => Potential::Scores { group: r.usize()?, scores: r.f64_vec_packed()? },
                2 => {
                    let group = r.usize()?;
                    let size = r.usize()?;
                    let high_configs = r.u32_vec_delta()?;
                    let (high, low) = (r.f64()?, r.f64()?);
                    if high_configs.iter().any(|&c| c as usize >= size) {
                        return Err(r.corrupt("two-level high config out of range"));
                    }
                    if high_configs.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(r.corrupt("two-level high configs not strictly sorted"));
                    }
                    Potential::TwoLevelScores { group, size, high_configs, high, low }
                }
                k => return Err(r.corrupt(format!("unknown potential kind {k}"))),
            };
            if potential.table_len() != table {
                return Err(r.corrupt(format!(
                    "potential table {} disagrees with joint configuration count {table}",
                    potential.table_len()
                )));
            }
            let slots: usize = vars.iter().map(|&v| graph.cardinality(v) as usize).sum();
            if u32::try_from(graph.arena_len() + slots).is_err() {
                return Err(r.corrupt("factor graph outgrows u32 message-arena offsets"));
            }
            graph.add_factor(&vars, potential, class);
        }
        let (init, groups) = init_params(config);
        let num_groups = r.seq_len(8)?;
        if num_groups != init.num_groups() {
            return Err(r.corrupt(format!(
                "snapshot has {num_groups} parameter groups, config layout has {}",
                init.num_groups()
            )));
        }
        let mut group_vecs = Vec::with_capacity(num_groups);
        for gi in 0..num_groups {
            let vec = r.f64_vec()?;
            if vec.len() != init.group(gi).len() {
                return Err(r.corrupt(format!(
                    "parameter group {gi} has {} weights, config layout expects {}",
                    vec.len(),
                    init.group(gi).len()
                )));
            }
            group_vecs.push(vec);
        }
        let params = Params::from_groups(group_vecs);
        // Potentials must reference existing parameter groups, and every
        // Features row must match its group's width — `log_phi` would
        // otherwise index out of bounds (panic) or, in release builds,
        // silently truncate the dot product.
        for f in 0..num_factors {
            let fid = jocl_fg::FactorId(f as u32);
            let pot = graph.factor_potential(fid);
            let group = pot.group();
            if group >= params.num_groups() {
                return Err(r.corrupt(format!(
                    "factor {f} references parameter group {group}, have {}",
                    params.num_groups()
                )));
            }
            if let Potential::Features { feats, .. } = pot {
                let width = params.group(group).len();
                if let Some(row) = feats.iter().find(|row| row.len() != width) {
                    return Err(r.corrupt(format!(
                        "factor {f} has a {}-feature row against group {group}'s width {width}",
                        row.len()
                    )));
                }
            }
        }
        let var_in_range = |r: &jocl_kb::snap::SnapReader<'_>, v: u32| {
            if (v as usize) < num_vars {
                Ok(VarId(v))
            } else {
                Err(r.corrupt(format!("plan variable {v} out of range")))
            }
        };
        let link_vars = |r: &mut jocl_kb::snap::SnapReader<'_>| {
            let present = r.bool_vec_packed()?;
            let ids = r.u32_vec_packed()?;
            if ids.len() != present.iter().filter(|&&p| p).count() {
                return Err(r.corrupt(format!(
                    "link map has {} ids for {} present mentions",
                    ids.len(),
                    present.iter().filter(|&&p| p).count()
                )));
            }
            let mut ids = ids.into_iter();
            let mut out = Vec::with_capacity(present.len());
            for p in present {
                out.push(if p {
                    let v = ids.next().expect("counted above");
                    Some(var_in_range(r, v)?)
                } else {
                    None
                });
            }
            Ok::<_, jocl_kb::KbError>(out)
        };
        let np_link_vars = link_vars(r)?;
        let np_candidates: Vec<Vec<EntityId>> = (0..r.seq_len(1)?)
            .map(|_| Ok(r.u32_vec_packed()?.into_iter().map(EntityId).collect()))
            .collect::<Result<_, jocl_kb::KbError>>()?;
        let rp_link_vars = link_vars(r)?;
        let rp_candidates: Vec<Vec<RelationId>> = (0..r.seq_len(1)?)
            .map(|_| Ok(r.u32_vec_packed()?.into_iter().map(RelationId).collect()))
            .collect::<Result<_, jocl_kb::KbError>>()?;
        let mut pair_lists: Vec<Vec<(TripleId, TripleId, VarId)>> = Vec::with_capacity(3);
        for _ in 0..3 {
            let a = r.u32_vec_delta()?;
            let b = r.u32_vec_packed()?;
            let v = r.u32_vec_packed()?;
            if a.len() != b.len() || a.len() != v.len() {
                return Err(r.corrupt(format!(
                    "pair registry columns disagree: {} / {} / {}",
                    a.len(),
                    b.len(),
                    v.len()
                )));
            }
            let mut list = Vec::with_capacity(a.len());
            for ((a, b), v) in a.into_iter().zip(b).zip(v) {
                list.push((TripleId(a), TripleId(b), var_in_range(r, v)?));
            }
            pair_lists.push(list);
        }
        let obj_pair_vars = pair_lists.pop().expect("three lists");
        let pred_pair_vars = pair_lists.pop().expect("three lists");
        let subj_pair_vars = pair_lists.pop().expect("three lists");
        // Candidate lists are the state spaces of their link variables:
        // a mention with a variable must carry exactly
        // `cardinality`-many candidates (decode indexes them by MAP
        // state), one without must carry none.
        if np_link_vars.len() != np_candidates.len() || rp_link_vars.len() != rp_candidates.len() {
            return Err(r.corrupt(format!(
                "link-variable maps ({} np / {} rp) disagree with candidate maps ({} / {})",
                np_link_vars.len(),
                rp_link_vars.len(),
                np_candidates.len(),
                rp_candidates.len()
            )));
        }
        let check_candidates = |what: &str, vars: &[Option<VarId>], lens: &[usize]| {
            for (m, v) in vars.iter().enumerate() {
                let have = lens[m];
                let want = v.map(|v| graph.cardinality(v) as usize).unwrap_or(0);
                if have != want {
                    return Err(r.corrupt(format!(
                        "{what} mention {m} has {have} candidates for a variable with {want} \
                         states"
                    )));
                }
            }
            Ok(())
        };
        check_candidates(
            "np",
            &np_link_vars,
            &np_candidates.iter().map(Vec::len).collect::<Vec<_>>(),
        )?;
        check_candidates(
            "rp",
            &rp_link_vars,
            &rp_candidates.iter().map(Vec::len).collect::<Vec<_>>(),
        )?;
        let stats = BuildStats {
            triangles: r.usize()?,
            fact_factors: r.usize()?,
            consistency_factors: r.usize()?,
        };
        Ok(GraphPlan {
            graph,
            params,
            groups,
            np_link_vars,
            np_candidates,
            rp_link_vars,
            rp_candidates,
            subj_pair_vars,
            pred_pair_vars,
            obj_pair_vars,
            stats,
        })
    }
}

/// The transitive-relation score table of §3.1.5: high 0.9 when all three
/// pair variables are 1, low 0.1 when exactly one is 0, middle 0.5
/// otherwise.
pub fn transitivity_scores() -> Vec<f64> {
    (0..8u32)
        .map(|flat| match flat.count_ones() {
            3 => 0.9,
            2 => 0.1,
            _ => 0.5,
        })
        .collect()
}

/// Build the factor graph for `config.variant`: one
/// `GraphBuilder::extend` pass over an empty plan, with the whole
/// `blocking` as the delta. The result is identical for any worker
/// count. The plan's parameters are
/// `config.pretrained_params` when set.
///
/// # Panics
/// Panics if `config.pretrained_params` does not match the parameter
/// layout of `config.features`.
pub fn build_graph(
    okb: &Okb,
    ckb: &Ckb,
    signals: &Signals,
    blocking: &Blocking,
    config: &JoclConfig,
) -> GraphPlan {
    let (params, groups) = init_params(config);
    let mut plan = GraphPlan::empty(params, groups);
    let input = BuildInput { okb, ckb, signals, config, live: &[] };
    GraphBuilder::new(config).extend(&mut plan, &input, blocking);
    plan
}

/// Cached handle for the graph-build latency histogram (registered
/// once; never locks inside the build workers).
fn graph_build_ns() -> &'static std::sync::Arc<jocl_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<jocl_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| jocl_obs::registry().histogram("jocl_graph_build_ns", &[]))
}

/// Smallest part of sharded per-key computation: fewer items than this
/// are not worth a thread.
const MIN_SHARD: usize = 8;

/// Compute `work` over every element of `items` on up to `threads`
/// workers, preserving item order in the output. `items` splits into
/// contiguous parts of at least [`MIN_SHARD`] items, one per worker; the
/// caller runs the first part, scoped helper threads the rest, and the
/// outputs concatenate in part order. A helper's panic is re-raised on
/// the caller.
fn sharded_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    work: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let part = items.len().div_ceil(threads.max(1)).max(MIN_SHARD);
    let mut parts = items.chunks(part);
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|s| {
        let helpers: Vec<_> =
            parts.map(|p| s.spawn(move || p.iter().map(work).collect::<Vec<R>>())).collect();
        let mut out: Vec<R> = Vec::with_capacity(items.len());
        out.extend(first.iter().map(work));
        for helper in helpers {
            out.extend(helper.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// The distinct `keys` that `cache` lacks, in first-seen order.
fn missing_keys<K, V>(cache: &FxHashMap<K, V>, keys: impl Iterator<Item = K>) -> Vec<K>
where
    K: std::hash::Hash + Eq + Clone,
{
    let mut seen: FxHashSet<K> = FxHashSet::default();
    keys.filter(|k| !cache.contains_key(k) && seen.insert(k.clone())).collect()
}

/// Initial parameters and group handles for `config.features`: α = β =
/// 2.0, or `config.pretrained_params` when set. Shared by
/// [`build_graph`], the incremental session and snapshot import so all
/// address the identical group layout.
///
/// # Panics
/// Panics if `config.pretrained_params` does not match the layout of
/// `config.features` (e.g. weights persisted under a different
/// `FeatureSet`): stale weights fail fast.
pub(crate) fn init_params(config: &JoclConfig) -> (Params, ParamGroups) {
    let fs = config.features;
    let mut params = Params::new();
    let groups = ParamGroups {
        alpha1: params.add_group(fs.np_canon_len(), 2.0),
        alpha2: params.add_group(fs.rp_canon_len(), 2.0),
        alpha3: params.add_group(fs.np_canon_len(), 2.0),
        alpha4: params.add_group(fs.entity_link_len(), 2.0),
        alpha5: params.add_group(fs.relation_link_len(), 2.0),
        alpha6: params.add_group(fs.entity_link_len(), 2.0),
        beta: [
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
            params.add_group(1, 2.0),
        ],
        gamma: params.add_group(1, 2.0),
    };
    if let Some(pre) = &config.pretrained_params {
        assert_eq!(
            pre.num_groups(),
            params.num_groups(),
            "pretrained params have a different group count than the graph layout"
        );
        for g in 0..pre.num_groups() {
            assert_eq!(
                pre.group(g).len(),
                params.group(g).len(),
                "pretrained group {g} has a different shape than the graph layout"
            );
        }
        params = pre.clone();
    }
    (params, groups)
}

/// Imported links matching `key`, with a determiner-stripped fallback
/// for NP surfaces ("the acme corp" hits an imported "acme corp" row).
fn side_lookup<'a>(side: &'a jocl_kb::SideKb, key: &str, entity: bool) -> &'a [jocl_kb::SideLink] {
    let links = if entity { side.entity_links(key) } else { side.relation_links(key) };
    if links.is_empty() && entity {
        if let Some(stripped) = key.strip_prefix("the ") {
            return side.entity_links(stripped);
        }
    }
    links
}

/// Resolve the imported side links of `key` (see [`side_lookup`]) into
/// candidate-space probabilities: append resolved targets missing from
/// `cands` (imported evidence may introduce candidates retrieval missed),
/// then score every candidate — imported targets at `0.5 + w/2`, the rest
/// at `0.5 - wmax/2`. `None` (no table, no row for this surface, or
/// nothing resolvable against the CKB) means **no factor**, leaving the
/// graph untouched.
fn side_probs<T: Copy + PartialEq>(
    side: Option<&jocl_kb::SideKb>,
    key: &str,
    entity: bool,
    resolve: impl Fn(&str) -> Option<T>,
    cands: &mut Vec<T>,
) -> Option<Vec<f64>> {
    let side = side?;
    let mut matched: Vec<(T, f64)> = Vec::new();
    for l in side_lookup(side, key, entity) {
        if let Some(id) = resolve(side.resolve(l.target)) {
            if !matched.iter().any(|&(e, _)| e == id) {
                matched.push((id, l.weight));
            }
        }
    }
    if matched.is_empty() {
        return None;
    }
    for &(id, _) in &matched {
        if !cands.contains(&id) {
            cands.push(id);
        }
    }
    let wmax = matched.iter().map(|&(_, w)| w).fold(0.0, f64::max);
    Some(
        cands
            .iter()
            .map(|c| match matched.iter().find(|&&(e, _)| e == *c) {
                Some(&(_, w)) => 0.5 + w / 2.0,
                None => 0.5 - wmax / 2.0,
            })
            .collect(),
    )
}

/// The active side-information table of a config: `None` when unset
/// **or empty** — an empty table must leave inference bitwise-identical
/// to the side-info-free pipeline.
fn active_side_info(config: &JoclConfig) -> Option<&jocl_kb::SideKb> {
    config.side_info.as_deref().filter(|s| !s.is_empty())
}

/// The read-only inputs of one [`GraphBuilder::extend`] pass.
pub(crate) struct BuildInput<'a> {
    pub(crate) okb: &'a Okb,
    pub(crate) ckb: &'a Ckb,
    pub(crate) signals: &'a Signals,
    pub(crate) config: &'a JoclConfig,
    /// Liveness per triple id (`false` = retracted); ids past its end are
    /// live.
    pub(crate) live: &'a [bool],
}

/// Per-family pair-variable adjacency for incremental transitivity
/// closure: `edges[(i, j)]` (i < j) is the pair variable, `adj` the
/// undirected neighbor lists.
#[derive(Debug, Clone, Default)]
struct TriangleIndex {
    edges: FxHashMap<(u32, u32), VarId>,
    adj: FxHashMap<u32, Vec<u32>>,
}

impl TriangleIndex {
    fn insert(&mut self, a: TripleId, b: TripleId, v: VarId) {
        self.edges.insert((a.0, b.0), v);
        self.adj.entry(a.0).or_default().push(b.0);
        self.adj.entry(b.0).or_default().push(a.0);
    }

    /// Insert the new `pairs` (variable `vars[i]` for pair `i`) and return
    /// every triangle that gained an edge, as `[v_ij, v_jk, v_ik]` in
    /// sorted `(i, j, k)` order. A retracted third vertex closes nothing:
    /// its two edges are tombstoned pair variables, and the reference
    /// batch run on the survivors has no such triangle.
    fn close(
        &mut self,
        pairs: &[(TripleId, TripleId)],
        vars: &[VarId],
        live: &[bool],
    ) -> Vec<[VarId; 3]> {
        for (&(a, b), &v) in pairs.iter().zip(vars) {
            self.insert(a, b, v);
        }
        let mut found: Vec<[u32; 3]> = Vec::new();
        for &(TripleId(a), TripleId(b)) in pairs {
            let (na, nb) = (&self.adj[&a], &self.adj[&b]);
            for &c in if na.len() <= nb.len() { na } else { nb } {
                if c == a || c == b || !live.get(c as usize).copied().unwrap_or(true) {
                    continue;
                }
                let e1 = (a.min(c), a.max(c));
                let e2 = (b.min(c), b.max(c));
                if self.edges.contains_key(&e1) && self.edges.contains_key(&e2) {
                    let mut t = [a, b, c];
                    t.sort_unstable();
                    found.push(t);
                }
            }
        }
        found.sort_unstable();
        found.dedup();
        found
            .into_iter()
            .map(|[i, j, k]| [self.edges[&(i, j)], self.edges[&(j, k)], self.edges[&(i, k)]])
            .collect()
    }
}

/// The build state that outlives one [`GraphBuilder::extend`] pass: the
/// per-distinct-key caches, the per-family triangle indexes and the
/// transitivity-triangle budget. A batch build uses it for one pass; a
/// streaming session keeps it across deltas.
#[derive(Clone, Default)]
pub(crate) struct GraphBuilder {
    /// Candidate + feature (+ side-information probability) cache per
    /// distinct lowercase NP phrase.
    np_values: FxHashMap<String, LinkValues<EntityId>>,
    /// Candidate + feature (+ side-information probability) cache per
    /// distinct lowercase RP phrase.
    rp_values: FxHashMap<String, LinkValues<RelationId>>,
    /// F1/F3 similarity cache per ordered lowercase phrase pair.
    np_pair_sims: FxHashMap<(String, String), Vec<f64>>,
    /// F2 similarity cache per ordered lowercase phrase pair.
    rp_pair_sims: FxHashMap<(String, String), Vec<f64>>,
    /// Pair-graph adjacency per family (subject, predicate, object).
    tri: [TriangleIndex; 3],
    /// Remaining transitivity-triangle budget (`config.max_triangles`).
    triangle_budget: usize,
    /// Set once a triangle was actually dropped for lack of budget (an
    /// exactly-consumed budget with nothing skipped keeps parity).
    triangles_skipped: bool,
}

impl GraphBuilder {
    /// Empty caches and indexes, with the full `config.max_triangles`
    /// budget.
    pub(crate) fn new(config: &JoclConfig) -> Self {
        Self { triangle_budget: config.max_triangles, ..Self::default() }
    }

    /// The build state behind `plan`: triangle indexes rebuilt from its
    /// pair registries, the given budget, and empty caches (they refill
    /// on demand with bitwise-identical values).
    pub(crate) fn restore(
        plan: &GraphPlan,
        triangle_budget: usize,
        triangles_skipped: bool,
    ) -> Self {
        let mut builder = Self { triangle_budget, triangles_skipped, ..Self::default() };
        let registries = [&plan.subj_pair_vars, &plan.pred_pair_vars, &plan.obj_pair_vars];
        for (tri, list) in builder.tri.iter_mut().zip(registries) {
            for &(a, b, v) in list {
                tri.insert(a, b, v);
            }
        }
        builder
    }

    /// Take over `other`'s per-key caches (pure functions of the frozen
    /// signals, so they stay valid for any plan).
    pub(crate) fn adopt_caches(&mut self, other: &mut GraphBuilder) {
        self.np_values = std::mem::take(&mut other.np_values);
        self.rp_values = std::mem::take(&mut other.rp_values);
        self.np_pair_sims = std::mem::take(&mut other.np_pair_sims);
        self.rp_pair_sims = std::mem::take(&mut other.rp_pair_sims);
    }

    /// Remaining transitivity-triangle budget.
    pub(crate) fn triangle_budget(&self) -> usize {
        self.triangle_budget
    }

    /// Whether a triangle was ever dropped for lack of budget.
    pub(crate) fn triangles_skipped(&self) -> bool {
        self.triangles_skipped
    }

    /// Pair variables of all three families with `t` as an endpoint.
    pub(crate) fn pair_vars_of(&self, t: TripleId) -> impl Iterator<Item = VarId> + '_ {
        self.tri.iter().flat_map(move |tri| {
            tri.adj
                .get(&t.0)
                .into_iter()
                .flatten()
                .map(move |&n| tri.edges[&(t.0.min(n), t.0.max(n))])
        })
    }

    /// Append `delta`'s variables and factors to `plan`: link variables
    /// for every live triple the plan's mention maps do not cover yet,
    /// and pair variables for every pair in `delta`. Ids and adjacency
    /// of existing nodes are never disturbed.
    ///
    /// Per-key values (candidates, link features, pair similarities)
    /// missing from the caches are computed on scoped worker threads
    /// sized by how many there are (one per hardware thread, or the
    /// caller's alone for at most [`MIN_SHARD`] keys), in contiguous
    /// parts; the graph is then assembled in a fixed order — NP link
    /// variables with F4/F6/S1, RP link variables with F5/S2, pair
    /// variables with F1–F3 per family, U1–U3 triangles that gained an
    /// edge, U4, then U5–U7 — so the result is identical for any worker
    /// count, and one pass over a whole OKB is exactly the batch graph.
    pub(crate) fn extend(
        &mut self,
        plan: &mut GraphPlan,
        input: &BuildInput<'_>,
        delta: &Blocking,
    ) {
        let sw = jocl_obs::Stopwatch::start();
        let _span = jocl_obs::span!("graph_build");
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        self.extend_on(plan, input, delta, threads);
        graph_build_ns().record(sw.ns());
    }

    /// [`GraphBuilder::extend`] with at most `threads` workers.
    fn extend_on(
        &mut self,
        plan: &mut GraphPlan,
        input: &BuildInput<'_>,
        delta: &Blocking,
        threads: usize,
    ) {
        let BuildInput { okb, config, live, .. } = *input;
        let (with_linking, with_canon, _) = parts(config.variant);
        let new_ids: Vec<TripleId> = (plan.rp_link_vars.len()..okb.len())
            .map(|i| TripleId(i as u32))
            .filter(|t| live.get(t.idx()).copied().unwrap_or(true))
            .collect();
        plan.np_link_vars.resize(okb.num_np_mentions(), None);
        plan.np_candidates.resize(okb.num_np_mentions(), Vec::new());
        plan.rp_link_vars.resize(okb.num_rp_mentions(), None);
        plan.rp_candidates.resize(okb.num_rp_mentions(), Vec::new());

        // Keys missing from the caches, in first-seen order.
        let (np_keys, rp_keys) = if with_linking {
            (
                missing_keys(
                    &self.np_values,
                    np_mentions(&new_ids).map(|m| okb.np_phrase(m).to_lowercase()),
                ),
                missing_keys(
                    &self.rp_values,
                    new_ids.iter().map(|&t| okb.rp_phrase(RpMention(t)).to_lowercase()),
                ),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let (np_pair_keys, rp_pair_keys) = if with_canon {
            let [subj, pred, obj] = families(delta).map(|family| pair_keys(okb, family));
            (
                missing_keys(&self.np_pair_sims, subj.chain(obj)),
                missing_keys(&self.rp_pair_sims, pred),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let missing = np_keys.len() + rp_keys.len() + np_pair_keys.len() + rp_pair_keys.len();
        // A small delta's keys fit one shard: run inline, no thread spawn.
        let threads = if missing <= MIN_SHARD { 1 } else { threads };
        self.fill_caches(threads, input, np_keys, rp_keys, np_pair_keys, rp_pair_keys);
        self.assemble(threads, plan, input, delta, &new_ids);
    }

    /// Compute the missing per-key values in parallel and cache them. Link
    /// values are computed **from the lowercase key itself**: every signal
    /// is case-insensitive, and deriving the value from the canonical key
    /// — never from whichever occurrence happened to fill the cache first
    /// — makes feature vectors an intrinsic property of the phrase, so a
    /// refill after a snapshot restore is bit-for-bit reproducible.
    fn fill_caches(
        &mut self,
        threads: usize,
        input: &BuildInput<'_>,
        np_keys: Vec<String>,
        rp_keys: Vec<String>,
        np_pair_keys: Vec<(String, String)>,
        rp_pair_keys: Vec<(String, String)>,
    ) {
        let BuildInput { ckb, signals, config, .. } = *input;
        let fs = config.features;
        // Candidate generation indexes the CKB's relation surfaces up
        // front: pay for it only when some link key is missing.
        if !np_keys.is_empty() || !rp_keys.is_empty() {
            let gen = CandidateGen::new(ckb, config.candidates.clone());
            let side = active_side_info(config);
            let values = sharded_map(threads, &np_keys, |key| {
                let scored = gen.entity_candidates(key);
                let mut cands: Vec<EntityId> = scored.iter().map(|s| s.id).collect();
                let side_probs =
                    side_probs(side, key, true, |name| ckb.entity_by_name(name), &mut cands);
                let feats: Vec<Vec<f64>> =
                    cands.iter().map(|&e| entity_link_features(signals, ckb, key, e, fs)).collect();
                (cands, feats, side_probs)
            });
            self.np_values.extend(np_keys.into_iter().zip(values));

            // RP linking runs in three sharded passes: (1) candidate retrieval
            // per key; (2) per-surface-form contexts (raw + morphologically
            // normalized) for exactly the relations some key shortlisted — not
            // the whole CKB inventory; (3) feature vectors from the cached
            // contexts.
            let rp_cands = sharded_map(threads, &rp_keys, |key| {
                let mut cands: Vec<RelationId> =
                    gen.relation_candidates(key).iter().map(|s| s.id).collect();
                let side_probs =
                    side_probs(side, key, false, |name| ckb.relation_by_name(name), &mut cands);
                (cands, Vec::new(), side_probs)
            });
            let mut rp_new: Vec<(String, LinkValues<RelationId>)> =
                rp_keys.into_iter().zip(rp_cands).collect();
            let mut used_rels: Vec<u32> =
                rp_new.iter().flat_map(|(_, (c, _, _))| c).map(|r| r.0).collect();
            used_rels.sort_unstable();
            used_rels.dedup();
            let used_ctx: Vec<Vec<(PhraseCtx, PhraseCtx)>> =
                sharded_map(threads, &used_rels, |&rid| {
                    ckb.relation(RelationId(rid))
                        .surface_forms
                        .iter()
                        .map(|sf| {
                            let normed = jocl_text::normalize::morph_normalize_rp(sf);
                            (signals.phrase_ctx(sf), signals.phrase_ctx(&normed))
                        })
                        .collect()
                });
            let ctx_of = |r: RelationId| -> &Vec<(PhraseCtx, PhraseCtx)> {
                &used_ctx[used_rels.binary_search(&r.0).expect("candidate relation has a context")]
            };
            let feats = sharded_map(threads, &rp_new, |(key, (cands, _, _))| {
                let pctx = signals.phrase_ctx(key);
                let nctx = signals.phrase_ctx(&jocl_text::normalize::morph_normalize_rp(key));
                cands
                    .iter()
                    .map(|&r| relation_link_features_ctx(signals, &pctx, &nctx, ctx_of(r), fs))
                    .collect()
            });
            for ((_, values), f) in rp_new.iter_mut().zip(feats) {
                values.1 = f;
            }
            self.rp_values.extend(rp_new);
        }

        let sims =
            sharded_map(threads, &np_pair_keys, |(a, b)| np_canon_features(signals, a, b, fs));
        self.np_pair_sims.extend(np_pair_keys.into_iter().zip(sims));
        let sims =
            sharded_map(threads, &rp_pair_keys, |(a, b)| rp_canon_features(signals, a, b, fs));
        self.rp_pair_sims.extend(rp_pair_keys.into_iter().zip(sims));
    }

    /// Append the variables and factors of `new_ids` and `delta` to
    /// `plan` from the filled caches, in the fixed order of
    /// [`GraphBuilder::extend`].
    fn assemble(
        &mut self,
        threads: usize,
        plan: &mut GraphPlan,
        input: &BuildInput<'_>,
        delta: &Blocking,
        new_ids: &[TripleId],
    ) {
        let BuildInput { okb, ckb, live, config, .. } = *input;
        let (with_linking, with_canon, with_consistency) = parts(config.variant);
        let groups = plan.groups;
        let families = families(delta);

        // ---------------- linking variables + F4/F5/F6 ------------------
        if with_linking {
            plan.graph.reserve(2 * new_ids.len(), 2 * new_ids.len());
            for m in np_mentions(new_ids) {
                let values = &self.np_values[&okb.np_phrase(m).to_lowercase()];
                let (group, class) = match m.slot {
                    NpSlot::Subject => (groups.alpha4, classes::F4),
                    NpSlot::Object => (groups.alpha6, classes::F6),
                };
                let side = (classes::S1, groups.gamma);
                if let Some(var) = add_link_var(&mut plan.graph, values, group, class, side) {
                    plan.np_link_vars[m.dense()] = Some(var);
                    plan.np_candidates[m.dense()] = values.0.clone();
                }
            }
            plan.graph.reserve(new_ids.len(), new_ids.len());
            for &t in new_ids {
                let m = RpMention(t);
                let values = &self.rp_values[&okb.rp_phrase(m).to_lowercase()];
                let side = (classes::S2, groups.gamma);
                if let Some(var) =
                    add_link_var(&mut plan.graph, values, groups.alpha5, classes::F5, side)
                {
                    plan.rp_link_vars[m.dense()] = Some(var);
                    plan.rp_candidates[m.dense()] = values.0.clone();
                }
            }
        }

        // ---------------- canonicalization variables + F1/F2/F3 ---------
        let mut pair_vars: [Vec<VarId>; 3] = Default::default();
        if with_canon {
            let canon = [
                (groups.alpha1, classes::F1, &self.np_pair_sims),
                (groups.alpha2, classes::F2, &self.rp_pair_sims),
                (groups.alpha3, classes::F3, &self.np_pair_sims),
            ];
            for (fam, (group, class, sims)) in canon.into_iter().enumerate() {
                let (pairs, phrase) = families[fam];
                plan.graph.reserve(pairs.len(), 0);
                let vars: Vec<VarId> = pairs
                    .iter()
                    .map(|_| plan.graph.add_var_with_class(2, classes::VAR_CANON))
                    .collect();
                let potentials: Vec<Potential> = sharded_map(threads, pairs, |&(ti, tj)| {
                    let key = ordered_key(phrase(okb.triple(ti)), phrase(okb.triple(tj)));
                    pair_potential(group, &sims[&key])
                });
                plan.graph.reserve(0, potentials.len());
                for (&v, p) in vars.iter().zip(potentials) {
                    plan.graph.add_factor(&[v], p, class);
                }
                pair_vars[fam] = vars;
            }

            // U1–U3 transitivity: triangles that gained ≥1 new edge, in
            // sorted (i, j, k) order, against the budget.
            let tables = transitivity_scores();
            for (fam, class) in [classes::U1, classes::U2, classes::U3].into_iter().enumerate() {
                for vars in self.tri[fam].close(families[fam].0, &pair_vars[fam], live) {
                    if self.triangle_budget == 0 {
                        self.triangles_skipped = true;
                        break;
                    }
                    self.triangle_budget -= 1;
                    plan.graph.add_factor(
                        &vars,
                        Potential::Scores { group: groups.beta[fam], scores: tables.clone() },
                        class,
                    );
                    plan.stats.triangles += 1;
                }
            }
        }

        // ---------------- U4 fact inclusion -----------------------------
        if with_linking {
            // New triples whose three linking variables all exist, in
            // triple order; the candidate-product fact probes run sharded.
            let items: Vec<(VarId, VarId, VarId, usize, usize, usize)> = new_ids
                .iter()
                .filter_map(|&t| {
                    let sm = NpMention { triple: t, slot: NpSlot::Subject }.dense();
                    let om = NpMention { triple: t, slot: NpSlot::Object }.dense();
                    let rm = RpMention(t).dense();
                    let (sv, rv) = (plan.np_link_vars[sm]?, plan.rp_link_vars[rm]?);
                    Some((sv, rv, plan.np_link_vars[om]?, sm, rm, om))
                })
                .collect();
            let factors: Vec<([VarId; 3], Potential)> =
                sharded_map(threads, &items, |&(sv, rv, ov, sm, rm, om)| {
                    let cs = &plan.np_candidates[sm];
                    let cr = &plan.rp_candidates[rm];
                    let co = &plan.np_candidates[om];
                    let (ks, kr, ko) = (cs.len(), cr.len(), co.len());
                    let mut high = Vec::new();
                    for (oi, &o) in co.iter().enumerate() {
                        for (ri, &r) in cr.iter().enumerate() {
                            for (si, &s) in cs.iter().enumerate() {
                                if ckb.has_fact(s, r, o) {
                                    high.push((si + ks * ri + ks * kr * oi) as u32);
                                }
                            }
                        }
                    }
                    let potential =
                        Potential::two_level(groups.beta[3], ks * kr * ko, high, 0.9, 0.1);
                    ([sv, rv, ov], potential)
                });
            plan.stats.fact_factors += factors.len();
            plan.graph.reserve(0, factors.len());
            for (vars, potential) in factors {
                plan.graph.add_factor(&vars, potential, classes::U4);
            }
        }

        // ---------------- U5–U7 consistency -----------------------------
        if with_consistency {
            let slots = [Some(NpSlot::Subject), None, Some(NpSlot::Object)];
            for (fam, class) in [classes::U5, classes::U6, classes::U7].into_iter().enumerate() {
                let slot = slots[fam];
                // New pair variables whose mentions both have linking
                // variables, in pair order; equality tables are built in
                // shards.
                let items: Vec<(VarId, VarId, VarId, usize, usize)> = families[fam]
                    .0
                    .iter()
                    .zip(&pair_vars[fam])
                    .filter_map(|(&(ti, tj), &pair_var)| {
                        let (ma, mb, va, vb) = match slot {
                            Some(s) => {
                                let ma = NpMention { triple: ti, slot: s }.dense();
                                let mb = NpMention { triple: tj, slot: s }.dense();
                                (ma, mb, plan.np_link_vars[ma], plan.np_link_vars[mb])
                            }
                            None => {
                                let (ma, mb) = (RpMention(ti).dense(), RpMention(tj).dense());
                                (ma, mb, plan.rp_link_vars[ma], plan.rp_link_vars[mb])
                            }
                        };
                        Some((va?, vb?, pair_var, ma, mb))
                    })
                    .collect();
                let factors: Vec<([VarId; 3], Potential)> =
                    sharded_map(threads, &items, |&(va, vb, pair_var, ma, mb)| {
                        let same_fn: EqualityTable = match slot {
                            Some(_) => {
                                equality_table(&plan.np_candidates[ma], &plan.np_candidates[mb])
                            }
                            None => {
                                equality_table(&plan.rp_candidates[ma], &plan.rp_candidates[mb])
                            }
                        };
                        let ka = plan.graph.cardinality(va) as usize;
                        let kb = plan.graph.cardinality(vb) as usize;
                        // Config (a, b, x): high when (cand_a == cand_b) ⟺ (x == 1).
                        let mut high = Vec::with_capacity(ka * kb);
                        for &(a, b, same) in &same_fn {
                            let x = usize::from(same); // the agreeing state
                            high.push((a + ka * b + ka * kb * x) as u32);
                        }
                        let beta = groups.beta[4 + fam];
                        let potential = Potential::two_level(beta, ka * kb * 2, high, 0.7, 0.3);
                        ([va, vb, pair_var], potential)
                    });
                plan.stats.consistency_factors += factors.len();
                plan.graph.reserve(0, factors.len());
                for (vars, potential) in factors {
                    plan.graph.add_factor(&vars, potential, class);
                }
            }
        }

        // Record the pair variables, keeping each registry sorted by
        // triple pair (conflict resolution in `decode` is sensitive to the
        // order).
        let registries =
            [&mut plan.subj_pair_vars, &mut plan.pred_pair_vars, &mut plan.obj_pair_vars];
        for ((out, (pairs, _)), vars) in registries.into_iter().zip(families).zip(&pair_vars) {
            out.extend(pairs.iter().zip(vars).map(|(&(a, b), &v)| (a, b, v)));
            out.sort_unstable_by_key(|&(a, b, _)| (a, b));
        }
    }
}

/// The factor families `variant` builds: (linking, canonicalization,
/// consistency).
fn parts(variant: Variant) -> (bool, bool, bool) {
    (
        matches!(variant, Variant::Full | Variant::LinkOnly | Variant::NoConsistency),
        matches!(variant, Variant::Full | Variant::CanoOnly | Variant::NoConsistency),
        matches!(variant, Variant::Full),
    )
}

/// One family's delta pairs and the triple slot its phrases come from.
type PairFamily<'a> = (&'a [(TripleId, TripleId)], fn(&jocl_kb::Triple) -> &str);

/// The subject, predicate and object families of `delta`.
fn families(delta: &Blocking) -> [PairFamily<'_>; 3] {
    [
        (&delta.subj_pairs, |t| t.subject.as_str()),
        (&delta.pred_pairs, |t| t.predicate.as_str()),
        (&delta.obj_pairs, |t| t.object.as_str()),
    ]
}

/// The canonical similarity key of every pair in `family`: the
/// lexicographically ordered lowercase forms. Similarity functions are
/// symmetric semantically but not to the last ulp (summation order), so
/// only a canonical argument order keeps a cache refill bit-for-bit
/// identical.
fn pair_keys<'a>(
    okb: &'a Okb,
    (pairs, phrase): PairFamily<'a>,
) -> impl Iterator<Item = (String, String)> + 'a {
    pairs.iter().map(move |&(a, b)| ordered_key(phrase(okb.triple(a)), phrase(okb.triple(b))))
}

/// The subject and object mentions of `ids`, in dense order.
fn np_mentions(ids: &[TripleId]) -> impl Iterator<Item = NpMention> + '_ {
    ids.iter().flat_map(|&triple| {
        [NpSlot::Subject, NpSlot::Object].map(|slot| NpMention { triple, slot })
    })
}

/// Append one linking variable over `values`' candidates with its
/// feature factor (`group`/`class`) and, when the phrase has imported
/// side information, its `(class, group)` prior `side`. `None` (and
/// nothing appended) for a phrase without candidates.
fn add_link_var<Id>(
    graph: &mut FactorGraph,
    (cands, feats, side_probs): &LinkValues<Id>,
    group: usize,
    class: u8,
    (side_class, side_group): (u8, usize),
) -> Option<VarId> {
    if cands.is_empty() {
        return None;
    }
    let var = graph.add_var_with_class(cands.len() as u32, classes::VAR_LINK);
    graph.add_factor(&[var], Potential::Features { group, feats: feats.clone() }, class);
    if let Some(probs) = side_probs {
        graph.add_factor(&[var], Potential::from_probs(side_group, probs.clone()), side_class);
    }
    Some(var)
}

/// Per-phrase linking cache entry: candidate ids, per-candidate feature
/// vectors, and the optional side-information probability row.
type LinkValues<Id> = (Vec<Id>, Vec<Vec<f64>>, Option<Vec<f64>>);

/// `(a_state, b_state, equal?)` for all candidate combinations.
type EqualityTable = Vec<(usize, usize, bool)>;

fn equality_table<T: PartialEq>(a: &[T], b: &[T]) -> EqualityTable {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for (ai, av) in a.iter().enumerate() {
        for (bi, bv) in b.iter().enumerate() {
            out.push((ai, bi, av == bv));
        }
    }
    out
}

/// F1/F2/F3 potential: state 0 features are `1 − s`, state 1 features `s`.
fn pair_potential(group: usize, sims: &[f64]) -> Potential {
    let state0: Vec<f64> = sims.iter().map(|s| 1.0 - s).collect();
    let state1 = sims.to_vec();
    Potential::Features { group, feats: vec![state0, state1] }
}

fn ordered_key(a: &str, b: &str) -> (String, String) {
    let (a, b) = (a.to_lowercase(), b.to_lowercase());
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// NP canonicalization feature vector ⟨f_idf, f_emb, f_PPDB⟩ (§3.1.3),
/// truncated by the feature set.
pub fn np_canon_features(signals: &Signals, a: &str, b: &str, fs: FeatureSet) -> Vec<f64> {
    let mut v = vec![signals.sim_idf_np(a, b)];
    if fs != FeatureSet::Single {
        v.push(signals.sim_emb(a, b));
    }
    if fs == FeatureSet::All {
        v.push(signals.sim_ppdb(a, b));
    }
    v
}

/// RP canonicalization feature vector
/// ⟨f_idf, f_emb, f_PPDB, f_AMIE, f_KBP⟩ (§3.1.4).
pub fn rp_canon_features(signals: &Signals, a: &str, b: &str, fs: FeatureSet) -> Vec<f64> {
    let mut v = vec![signals.sim_idf_rp(a, b)];
    if fs != FeatureSet::Single {
        v.push(signals.sim_emb(a, b));
    }
    if fs == FeatureSet::All {
        v.push(signals.sim_ppdb(a, b));
        v.push(signals.sim_amie(a, b));
        v.push(signals.sim_kbp(a, b));
    }
    v
}

/// Entity linking feature vector ⟨f_pop, f'_emb, f'_PPDB⟩ (§3.2.3).
pub fn entity_link_features(
    signals: &Signals,
    ckb: &Ckb,
    phrase: &str,
    e: EntityId,
    fs: FeatureSet,
) -> Vec<f64> {
    let mut v = vec![signals.popularity(ckb, phrase, e)];
    let name = &ckb.entity(e).name;
    if fs != FeatureSet::Single {
        v.push(signals.sim_emb(phrase, name));
    }
    if fs == FeatureSet::All {
        v.push(signals.sim_ppdb(phrase, name));
    }
    v
}

/// Relation linking feature vector ⟨f_ngram, f_LD, f'_emb, f'_PPDB⟩
/// (§3.2.4) over precomputed contexts: `p` is the phrase, `pn` its
/// morph-normalized form, `surfaces` the candidate relation's
/// `(surface, normalized-surface)` contexts. RP comparisons run on raw
/// and morphologically normalized forms and keep the best score against
/// the best-matching surface form (OIE pipelines conventionally
/// normalize RPs, and the CKB's surface inventory stores base forms). A
/// test keeps it equal to an uncached reference implementation.
fn relation_link_features_ctx(
    signals: &Signals,
    p: &PhraseCtx,
    pn: &PhraseCtx,
    surfaces: &[(PhraseCtx, PhraseCtx)],
    fs: FeatureSet,
) -> Vec<f64> {
    let best = |f: &dyn Fn(&PhraseCtx, &PhraseCtx) -> f64| -> f64 {
        surfaces.iter().map(|(sf, sfn)| f(p, sf).max(f(pn, sfn))).fold(0.0, f64::max)
    };
    let mut v = vec![best(&|a, b| signals.sim_ngram_ctx(a, b))];
    if fs != FeatureSet::Single {
        // Levenshtein with the length-bound prune; the running max is the
        // floor, so the fold equals `best(sim_ld)` exactly.
        v.push(surfaces.iter().fold(0.0f64, |acc, (sf, sfn)| {
            let acc = signals.sim_ld_ctx_at_least(p, sf, acc);
            signals.sim_ld_ctx_at_least(pn, sfn, acc)
        }));
    }
    if fs == FeatureSet::All {
        v.push(best(&|a, b| signals.sim_emb_ctx(a, b)));
        v.push(best(&|a, b| signals.sim_ppdb_ctx(a, b)));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference relation linking feature vector ⟨f_ngram, f_LD, f'_emb,
    /// f'_PPDB⟩ (§3.2.4): string similarity against the best-matching
    /// surface form of the candidate relation, recomputing every
    /// normalization — the oracle for [`relation_link_features_ctx`].
    fn relation_link_features(
        signals: &Signals,
        ckb: &Ckb,
        phrase: &str,
        r: RelationId,
        fs: FeatureSet,
    ) -> Vec<f64> {
        let rel = ckb.relation(r);
        // RP comparisons run on raw and morphologically normalized forms and
        // keep the best score (OIE pipelines conventionally normalize RPs,
        // and the CKB's surface inventory stores base forms).
        let normed = jocl_text::normalize::morph_normalize_rp(phrase);
        let best = |f: &dyn Fn(&str, &str) -> f64| -> f64 {
            rel.surface_forms
                .iter()
                .map(|sf| {
                    f(phrase, sf).max(f(&normed, &jocl_text::normalize::morph_normalize_rp(sf)))
                })
                .fold(0.0, f64::max)
        };
        let mut v = vec![best(&|a, b| signals.sim_ngram(a, b))];
        if fs != FeatureSet::Single {
            v.push(best(&|a, b| signals.sim_ld(a, b)));
        }
        if fs == FeatureSet::All {
            v.push(best(&|a, b| signals.sim_emb(a, b)));
            v.push(best(&|a, b| signals.sim_ppdb(a, b)));
        }
        v
    }

    #[test]
    fn transitivity_table_matches_paper() {
        let t = transitivity_scores();
        assert_eq!(t.len(), 8);
        // flat = a + 2b + 4c
        assert_eq!(t[0b111], 0.9); // all ones: reward
        assert_eq!(t[0b011], 0.1); // two ones, one zero: penalize
        assert_eq!(t[0b101], 0.1);
        assert_eq!(t[0b110], 0.1);
        assert_eq!(t[0b000], 0.5); // otherwise: middle
        assert_eq!(t[0b001], 0.5);
    }

    #[test]
    fn pair_potential_complements_features() {
        let p = pair_potential(0, &[0.8, 0.3]);
        let Potential::Features { feats, .. } = p else { panic!() };
        assert_eq!(feats[1], vec![0.8, 0.3]);
        assert!((feats[0][0] - 0.2).abs() < 1e-12);
        assert!((feats[0][1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn equality_table_enumerates_all() {
        let t = equality_table(&[1, 2], &[2, 3, 1]);
        assert_eq!(t.len(), 6);
        assert!(t.contains(&(0, 2, true))); // 1 == 1
        assert!(t.contains(&(1, 0, true))); // 2 == 2
        assert!(t.contains(&(0, 0, false)));
    }

    #[test]
    fn ordered_key_is_symmetric() {
        assert_eq!(ordered_key("B", "a"), ordered_key("a", "B"));
    }

    /// The context-based RP feature path (the sharded builder's hot loop)
    /// must produce exactly the reference `relation_link_features` vector.
    #[test]
    fn ctx_relation_features_match_reference() {
        let ex = crate::example::figure1();
        let signals = crate::signals::build_signals(
            &ex.okb,
            &ex.ckb,
            &ex.ppdb,
            &ex.corpus,
            &jocl_embed::SgnsOptions { dim: 8, epochs: 2, ..Default::default() },
        );
        let rel_ctx: Vec<Vec<(PhraseCtx, PhraseCtx)>> = (0..ex.ckb.num_relations() as u32)
            .map(|rid| {
                ex.ckb
                    .relation(RelationId(rid))
                    .surface_forms
                    .iter()
                    .map(|sf| {
                        let normed = jocl_text::normalize::morph_normalize_rp(sf);
                        (signals.phrase_ctx(sf), signals.phrase_ctx(&normed))
                    })
                    .collect()
            })
            .collect();
        for phrase in ["locate in", "be a member of", "be an early member of", "unrelated"] {
            let pctx = signals.phrase_ctx(phrase);
            let nctx = signals.phrase_ctx(&jocl_text::normalize::morph_normalize_rp(phrase));
            for fs in [FeatureSet::Single, FeatureSet::Double, FeatureSet::All] {
                for rid in 0..ex.ckb.num_relations() as u32 {
                    let r = RelationId(rid);
                    let reference = relation_link_features(&signals, &ex.ckb, phrase, r, fs);
                    let ctx = relation_link_features_ctx(
                        &signals,
                        &pctx,
                        &nctx,
                        &rel_ctx[rid as usize],
                        fs,
                    );
                    assert_eq!(reference, ctx, "phrase {phrase:?} relation {rid} {fs:?}");
                }
            }
        }
    }

    /// Grow a plan from `okb` in `deltas` contiguous arrival batches on
    /// `threads` workers (unclamped: `extend` would use the hardware's
    /// count).
    fn grow(
        okb: &Okb,
        ckb: &Ckb,
        signals: &Signals,
        config: &JoclConfig,
        deltas: usize,
        threads: usize,
    ) -> GraphPlan {
        let (params, groups) = init_params(config);
        let mut plan = GraphPlan::empty(params, groups);
        let mut builder = GraphBuilder::new(config);
        let mut index = crate::blocking::BlockingIndex::new(config);
        let mut prefix = Okb::new();
        let triples: Vec<jocl_kb::Triple> = okb.triples().map(|(_, t)| t.clone()).collect();
        for chunk in triples.chunks(triples.len().div_ceil(deltas)) {
            let mut delta = Blocking::default();
            for t in chunk {
                let id = prefix.add_triple(t.clone());
                delta.extend(index.append_triple(id, t, signals));
            }
            for pairs in [&mut delta.subj_pairs, &mut delta.pred_pairs, &mut delta.obj_pairs] {
                pairs.sort_unstable();
            }
            let input = BuildInput { okb: &prefix, ckb, signals, config, live: &[] };
            builder.extend_on(&mut plan, &input, &delta, threads);
        }
        plan
    }

    /// Sharding must not influence the built graph: any worker count
    /// produces an identical structure, identical potentials, and
    /// identical plan indexes — for a whole-OKB build, for a warm plan
    /// grown by three deltas and under imported side information alike.
    #[test]
    fn build_is_identical_for_any_thread_count() {
        let sgns = jocl_embed::SgnsOptions { dim: 8, epochs: 2, ..Default::default() };
        let ex = crate::example::figure1();
        let ex_signals =
            crate::signals::build_signals(&ex.okb, &ex.ckb, &ex.ppdb, &ex.corpus, &sgns);
        let world = jocl_datagen::reverb45k_like(3, 0.002);
        let mut okb = Okb::new();
        for (_, t) in world.okb.triples() {
            okb.ingest_triple(t.clone());
        }
        let signals =
            crate::signals::build_signals(&okb, &world.ckb, &world.ppdb, &world.corpus, &sgns);
        let world_config = JoclConfig::default();
        // An alias table over the world's own surface forms, so S1/S2
        // potentials and appended candidates are built too.
        let mut side = jocl_kb::SideKb::new();
        for (i, (_, t)) in okb.triples().take(20).enumerate() {
            let e = EntityId((i % world.ckb.num_entities()) as u32);
            side.add_entity_link(&t.subject, &world.ckb.entity(e).name, 0.5);
            let r = RelationId((i % world.ckb.num_relations()) as u32);
            side.add_relation_link(&t.predicate, &world.ckb.relation(r).name, 0.5);
        }
        let side_config =
            JoclConfig { side_info: Some(std::sync::Arc::new(side)), ..JoclConfig::default() };
        for (what, okb, ckb, signals, config, deltas) in [
            ("figure 1", &ex.okb, &ex.ckb, &ex_signals, &ex.config(), 1),
            ("world batch", &okb, &world.ckb, &signals, &world_config, 1),
            ("world warm", &okb, &world.ckb, &signals, &world_config, 3),
            ("world side info", &okb, &world.ckb, &signals, &side_config, 1),
        ] {
            let base = grow(okb, ckb, signals, config, deltas, 1);
            assert!(base.graph.num_factors() > 0, "{what}: nothing built");
            if config.side_info.is_some() {
                let side_factors = (0..base.graph.num_factors() as u32)
                    .filter(|&f| base.graph.factor_class(jocl_fg::FactorId(f)) == classes::S1)
                    .count();
                assert!(side_factors > 0, "{what}: no side-information potentials");
            }
            for threads in [2usize, 4] {
                let plan = grow(okb, ckb, signals, config, deltas, threads);
                // Debug output covers cardinalities, adjacency, classes,
                // and every potential value — a full structural
                // fingerprint.
                assert_eq!(format!("{:?}", plan.graph), format!("{:?}", base.graph), "{what}");
                assert_eq!(plan.np_candidates, base.np_candidates, "{what}");
                assert_eq!(plan.rp_candidates, base.rp_candidates, "{what}");
                assert_eq!(plan.subj_pair_vars, base.subj_pair_vars, "{what}");
                assert_eq!(plan.pred_pair_vars, base.pred_pair_vars, "{what}");
                assert_eq!(plan.obj_pair_vars, base.obj_pair_vars, "{what}");
                assert_eq!(plan.stats, base.stats, "{what}");
            }
        }
    }

    /// `sharded_map` returns one output per item, in item order, for any
    /// worker count: empty input, one item, exactly one part, one past a
    /// part, and several uneven parts.
    #[test]
    fn sharded_map_keeps_item_order() {
        for n in [0usize, 1, 8, 9, 103] {
            let items: Vec<usize> = (0..n).collect();
            let want: Vec<(usize, usize)> = items.iter().map(|&i| (i, i * i)).collect();
            for threads in [1, 2, 4] {
                let out = sharded_map(threads, &items, |&i| (i, i * i));
                assert_eq!(out, want, "{n} items on {threads} threads");
            }
        }
    }

    /// A panicking item is re-raised on the caller with its own payload,
    /// whether it sits in the caller's part or in a helper's, once every
    /// helper has been joined.
    #[test]
    fn sharded_map_reraises_a_panicking_item() {
        let items: Vec<usize> = (0..103).collect();
        for bad in [3, 100] {
            let caught = std::panic::catch_unwind(|| {
                sharded_map(4, &items, |&i| if i == bad { panic!("item {i} exploded") } else { i })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<String>(), Some(&format!("item {bad} exploded")));
        }
    }

    /// A plan snapshot whose factors would outgrow the `u32` offsets of
    /// the LBP message arena is a typed error, not a panic: two factors
    /// over one variable with 2^31 states need 2^32 arena slots, though
    /// their two-level tables store no rows.
    #[test]
    fn import_rejects_a_plan_that_outgrows_the_message_arena() {
        let mut w = jocl_kb::snap::SnapWriter::new();
        w.tag("PLAN");
        w.usize(1);
        w.u32(1 << 31);
        w.u64(0);
        w.usize(2);
        for _ in 0..2 {
            w.u64(0);
            w.u32_slice_packed(&[0]);
            w.u64(2);
            w.usize(0);
            w.usize(1 << 31);
            w.u32_slice_delta(&[]);
            w.f64(1.0);
            w.f64(0.0);
        }
        w.f64_slice(&[0.0; 8]);
        let bytes = w.into_bytes();
        let mut r = jocl_kb::snap::SnapReader::new(&bytes);
        let err = GraphPlan::import_state(&mut r, &JoclConfig::default()).err().expect("rejected");
        assert!(err.to_string().contains("message-arena offsets"), "{err}");
    }
}
